package nn

import (
	"fmt"
	"math"

	"pipedream/internal/tensor"
)

// LRSchedule adjusts an optimizer's learning rate per step. The paper's
// training methodology (§5.1) adjusts learning rates during training and
// uses warm-up for large global batch sizes.
type LRSchedule interface {
	// LRAt returns the learning rate for 0-based step t.
	LRAt(t int) float64
}

// ConstantLR keeps a fixed rate.
type ConstantLR float64

// LRAt implements LRSchedule.
func (c ConstantLR) LRAt(int) float64 { return float64(c) }

// StepDecay multiplies the base rate by Factor every Every steps — the
// classic ImageNet "divide by 10 every 30 epochs" schedule.
type StepDecay struct {
	Base   float64
	Factor float64
	Every  int
}

// LRAt implements LRSchedule.
func (s StepDecay) LRAt(t int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Factor, float64(t/s.Every))
}

// Warmup ramps the rate linearly from Base/Steps to Base over Steps
// steps, then delegates to After (gradual warm-up for large minibatches,
// Goyal et al., used by the paper's large-batch baselines).
type Warmup struct {
	Base  float64
	Steps int
	After LRSchedule
}

// LRAt implements LRSchedule.
func (w Warmup) LRAt(t int) float64 {
	if t < w.Steps && w.Steps > 0 {
		return w.Base * float64(t+1) / float64(w.Steps)
	}
	if w.After != nil {
		return w.After.LRAt(t - w.Steps)
	}
	return w.Base
}

// Scheduled wraps an optimizer with a learning-rate schedule: each Step
// first sets the rate for the current step counter.
type Scheduled struct {
	Opt      Optimizer
	Schedule LRSchedule
	step     int
}

// NewScheduled wraps opt with schedule.
func NewScheduled(opt Optimizer, schedule LRSchedule) *Scheduled {
	return &Scheduled{Opt: opt, Schedule: schedule}
}

// Step implements Optimizer.
func (s *Scheduled) Step(params, grads []*tensor.Tensor) { s.StepInto(params, params, grads) }

// StepInto implements Optimizer.
func (s *Scheduled) StepInto(next, cur, grads []*tensor.Tensor) {
	s.Opt.SetLR(s.Schedule.LRAt(s.step))
	s.step++
	s.Opt.StepInto(next, cur, grads)
}

// LR implements Optimizer.
func (s *Scheduled) LR() float64 { return s.Opt.LR() }

// SetLR implements Optimizer (overrides the schedule's base is not
// supported; the call adjusts the wrapped optimizer directly).
func (s *Scheduled) SetLR(lr float64) { s.Opt.SetLR(lr) }

// ClipGradNorm scales grads in place so their global L2 norm does not
// exceed maxNorm, returning the pre-clip norm — standard practice for
// recurrent models like the paper's GNMT and AWD-LM.
func ClipGradNorm(grads []*tensor.Tensor, maxNorm float64) float64 {
	if maxNorm <= 0 {
		panic(fmt.Sprintf("nn: clip norm must be positive, got %v", maxNorm))
	}
	var sq float64
	for _, g := range grads {
		n := g.Norm()
		sq += n * n
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm {
		scale := float32(maxNorm / norm)
		for _, g := range grads {
			g.Scale(scale)
		}
	}
	return norm
}
