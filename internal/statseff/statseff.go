// Package statseff measures statistical efficiency — epochs needed to
// reach a target metric — under the staleness regimes the paper compares:
// BSP data parallelism (the gold standard), PipeDream's weight stashing,
// naive pipelining without stashing, vertical sync, and asynchronous data
// parallelism (ASP). All regimes see identical data order and identical
// initial weights, so metric differences isolate the effect of gradient
// staleness, exactly as the paper's Figure 11 and §5.2 argue.
package statseff

import (
	"fmt"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/partition"
	"pipedream/internal/pipeline"
	"pipedream/internal/tensor"
)

// Curve is the per-epoch trajectory of one training regime.
type Curve struct {
	Name string
	// TrainLoss[e] is the mean training loss of epoch e.
	TrainLoss []float64
	// Score[e] is the evaluation metric (accuracy for classification)
	// after epoch e.
	Score []float64
}

// EpochsToTarget returns the first 1-based epoch whose score reaches
// target, or -1 if never reached.
func (c *Curve) EpochsToTarget(target float64) int {
	for e, s := range c.Score {
		if s >= target {
			return e + 1
		}
	}
	return -1
}

// Final returns the last score, or 0 for an empty curve.
func (c *Curve) Final() float64 {
	if len(c.Score) == 0 {
		return 0
	}
	return c.Score[len(c.Score)-1]
}

// evaluate runs the model over every batch of eval and returns accuracy.
func evaluate(model *nn.Sequential, eval data.Dataset) float64 {
	correct, total := 0, 0
	for i := 0; i < eval.NumBatches(); i++ {
		b := eval.Batch(i)
		y, _ := model.Forward(b.X, false)
		correct += int(nn.Accuracy(y, b.Labels)*float64(len(b.Labels)) + 0.5)
		total += len(b.Labels)
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Config is shared by all regimes.
type Config struct {
	Factory      func() *nn.Sequential
	Train, Eval  data.Dataset
	NewOptimizer func() nn.Optimizer
	Loss         pipeline.LossFunc
	Epochs       int
}

func (c *Config) validate() error {
	if c.Factory == nil || c.Train == nil || c.Eval == nil || c.NewOptimizer == nil || c.Loss == nil {
		return fmt.Errorf("statseff: incomplete config")
	}
	if c.Epochs < 1 {
		return fmt.Errorf("statseff: epochs = %d", c.Epochs)
	}
	return nil
}

// TrainBSP trains with bulk-synchronous data parallelism over `workers`
// logical workers: each step averages gradients of `workers` consecutive
// minibatches and applies a single update (global batch = workers × B).
func TrainBSP(cfg Config, workers int) (*Curve, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("statseff: workers = %d", workers)
	}
	model := cfg.Factory()
	opt := cfg.NewOptimizer()
	curve := &Curve{Name: fmt.Sprintf("BSP-DP(%d)", workers)}
	perEpoch := cfg.Train.NumBatches()
	mb := 0
	for e := 0; e < cfg.Epochs; e++ {
		var lossSum float64
		steps := 0
		for i := 0; i+workers <= perEpoch; i += workers {
			acc := nn.SnapshotParams(model.Grads())
			for _, a := range acc {
				a.Zero()
			}
			for w := 0; w < workers; w++ {
				b := cfg.Train.Batch(mb)
				mb++
				y, ctx := model.Forward(b.X, true)
				loss, grad := cfg.Loss(y, b.Labels)
				lossSum += loss
				model.Backward(ctx, grad)
				for gi, g := range model.Grads() {
					acc[gi].Add(g)
				}
			}
			for gi, g := range model.Grads() {
				tensor.ScaleInto(g.Data, acc[gi].Data, 1/float32(workers))
			}
			opt.Step(model.Params(), model.Grads())
			steps += workers
		}
		curve.TrainLoss = append(curve.TrainLoss, lossSum/float64(max(steps, 1)))
		curve.Score = append(curve.Score, evaluate(model, cfg.Eval))
	}
	return curve, nil
}

// TrainASP trains with asynchronous data parallelism over `workers`
// workers: each update's gradient was computed against weights that are
// `workers-1` updates stale (the steady-state staleness of ASP), the
// behaviour that degrades statistical efficiency in §5.2.
func TrainASP(cfg Config, workers int) (*Curve, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("statseff: workers = %d", workers)
	}
	model := cfg.Factory()
	opt := cfg.NewOptimizer()
	curve := &Curve{Name: fmt.Sprintf("ASP(%d)", workers)}
	// Ring of stale parameter snapshots.
	history := make([][]*tensor.Tensor, 0, workers)
	mb := 0
	for e := 0; e < cfg.Epochs; e++ {
		var lossSum float64
		steps := 0
		for i := 0; i < cfg.Train.NumBatches(); i++ {
			b := cfg.Train.Batch(mb)
			mb++
			params := model.Params()
			// Compute gradient against the stalest snapshot (the weights
			// this logical worker fetched workers-1 updates ago).
			var restore []*tensor.Tensor
			if len(history) == workers-1 && workers > 1 {
				restore = nn.SnapshotParams(params)
				nn.RestoreParams(params, history[0])
				history = history[1:]
			}
			y, ctx := model.Forward(b.X, true)
			loss, grad := cfg.Loss(y, b.Labels)
			lossSum += loss
			model.Backward(ctx, grad)
			if restore != nil {
				nn.RestoreParams(params, restore)
			}
			opt.Step(params, model.Grads())
			if workers > 1 {
				history = append(history, nn.SnapshotParams(params))
			}
			steps++
		}
		curve.TrainLoss = append(curve.TrainLoss, lossSum/float64(max(steps, 1)))
		curve.Score = append(curve.Score, evaluate(model, cfg.Eval))
	}
	return curve, nil
}

// TrainPipeline trains with the real PipeDream runtime under the given
// plan and staleness mode.
func TrainPipeline(cfg Config, plan *partition.Plan, mode pipeline.StalenessMode) (*Curve, error) {
	return trainPipeline(cfg, fmt.Sprintf("PipeDream(%s,%s)", plan.ConfigString(), mode),
		pipeline.Options{Plan: plan, Mode: mode})
}

// trainPipeline runs the epoch loop of a curve on the real runtime,
// built from opts with cfg's model, loss and optimizer.
func trainPipeline(cfg Config, name string, opts pipeline.Options) (*Curve, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	opts.ModelFactory, opts.Loss, opts.NewOptimizer = cfg.Factory, cfg.Loss, cfg.NewOptimizer
	p, err := pipeline.New(opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	curve := &Curve{Name: name}
	for e := 0; e < cfg.Epochs; e++ {
		rep, err := p.Train(cfg.Train, cfg.Train.NumBatches())
		if err != nil {
			return nil, err
		}
		curve.TrainLoss = append(curve.TrainLoss, rep.MeanLoss())
		curve.Score = append(curve.Score, evaluate(p.CollectModel(), cfg.Eval))
	}
	return curve, nil
}

// TrainSequential trains one worker with plain minibatch SGD — the
// single-machine reference.
func TrainSequential(cfg Config) (*Curve, error) {
	c, err := TrainBSP(cfg, 1)
	if err != nil {
		return nil, err
	}
	c.Name = "Sequential"
	return c, nil
}

// TrainGPipeSemantics trains with GPipe's learning semantics on our
// runtime: m minibatches in flight with gradient accumulation over all m,
// so weights stay constant within a round and update once per flush —
// statistically equivalent to BSP with an m-times-larger global batch and
// m-times-fewer updates per epoch.
func TrainGPipeSemantics(cfg Config, plan *partition.Plan, microbatches int) (*Curve, error) {
	if microbatches < 1 {
		return nil, fmt.Errorf("statseff: microbatches = %d", microbatches)
	}
	return trainPipeline(cfg, fmt.Sprintf("GPipe(m=%d,%s)", microbatches, plan.ConfigString()), pipeline.Options{
		Plan:       plan.AtDepth(microbatches),
		SyncConfig: pipeline.SyncConfig{GradAccumulation: microbatches},
	})
}
