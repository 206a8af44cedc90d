// Package profile defines the per-layer measurements PipeDream's optimizer
// consumes — for each layer l the paper's triple (Tl, al, wl): compute time
// across forward and backward pass, output activation bytes, and weight
// bytes — plus a measuring profiler for real in-process models and JSON
// serialization for offline use.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// LayerProfile is the profile of one layer for one minibatch.
type LayerProfile struct {
	Name            string  `json:"name"`
	FwdTime         float64 `json:"fwd_time"`         // seconds per minibatch
	BwdTime         float64 `json:"bwd_time"`         // seconds per minibatch
	ActivationBytes int64   `json:"activation_bytes"` // a_l: output activation size
	WeightBytes     int64   `json:"weight_bytes"`     // w_l: parameter size
	// BwdParamTime is the part of BwdTime after the stage's upstream
	// gradient has left: the parameter half (nn.Sequential.BackwardWithHook).
	// 0 without parameters and in profiles Measure did not take.
	BwdParamTime float64 `json:"bwd_param_time,omitempty"`
}

// TotalTime returns Tl = forward + backward time.
func (l LayerProfile) TotalTime() float64 { return l.FwdTime + l.BwdTime }

// ModelProfile is a profiled model: an ordered list of layer profiles at a
// fixed per-worker minibatch size.
type ModelProfile struct {
	Model         string `json:"model"`
	MinibatchSize int    `json:"minibatch_size"`
	InputBytes    int64  `json:"input_bytes"` // size of one input minibatch
	// Parallelism records the tensor-kernel parallelism degree the
	// timings were measured under. Tl feeds the partitioner's stage
	// sizing, so profiles must be taken at the same degree the runtime
	// will train with (see tensor.SetParallelism); a mismatch skews
	// every predicted stage time by the speedup ratio. 0 in profiles
	// predating this field.
	Parallelism int            `json:"parallelism,omitempty"`
	Layers      []LayerProfile `json:"layers"`

	cumTime   []float64 // cumTime[i] = sum of TotalTime over layers [0,i)
	cumFwd    []float64 // cumFwd[i] = sum of FwdTime over layers [0,i)
	cumBwd    []float64 // cumBwd[i] = sum of BwdTime over layers [0,i)
	cumWeight []int64   // cumWeight[i] = sum of WeightBytes over layers [0,i)
}

// NumLayers returns the layer count.
func (m *ModelProfile) NumLayers() int { return len(m.Layers) }

// buildSums (re)computes prefix sums; called lazily by accessors.
func (m *ModelProfile) buildSums() {
	if len(m.cumTime) == len(m.Layers)+1 {
		return
	}
	m.cumTime = make([]float64, len(m.Layers)+1)
	m.cumFwd = make([]float64, len(m.Layers)+1)
	m.cumBwd = make([]float64, len(m.Layers)+1)
	m.cumWeight = make([]int64, len(m.Layers)+1)
	for i, l := range m.Layers {
		m.cumTime[i+1] = m.cumTime[i] + l.TotalTime()
		m.cumFwd[i+1] = m.cumFwd[i] + l.FwdTime
		m.cumBwd[i+1] = m.cumBwd[i] + l.BwdTime
		m.cumWeight[i+1] = m.cumWeight[i] + l.WeightBytes
	}
}

// TimeRange returns the total compute time of layers [i, j] inclusive.
func (m *ModelProfile) TimeRange(i, j int) float64 {
	m.buildSums()
	return m.cumTime[j+1] - m.cumTime[i]
}

// FwdRange returns the forward time of layers [i, j] inclusive.
func (m *ModelProfile) FwdRange(i, j int) float64 {
	m.buildSums()
	return m.cumFwd[j+1] - m.cumFwd[i]
}

// BwdRange returns the backward time of layers [i, j] inclusive.
func (m *ModelProfile) BwdRange(i, j int) float64 {
	m.buildSums()
	return m.cumBwd[j+1] - m.cumBwd[i]
}

// WeightRange returns the total weight bytes of layers [i, j] inclusive.
func (m *ModelProfile) WeightRange(i, j int) int64 {
	m.buildSums()
	return m.cumWeight[j+1] - m.cumWeight[i]
}

// TotalTime returns the single-worker compute time for one minibatch.
func (m *ModelProfile) TotalTime() float64 { return m.TimeRange(0, len(m.Layers)-1) }

// TotalWeightBytes returns the full model size in bytes.
func (m *ModelProfile) TotalWeightBytes() int64 { return m.WeightRange(0, len(m.Layers)-1) }

// ActivationBytes returns a_l for layer i — the bytes crossing the
// boundary between layer i and layer i+1 in the forward direction (the
// backward gradient has the same size).
func (m *ModelProfile) ActivationBytes(i int) int64 { return m.Layers[i].ActivationBytes }

// Validate checks the profile is usable by the optimizer.
func (m *ModelProfile) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("profile %q: no layers", m.Model)
	}
	if m.MinibatchSize <= 0 {
		return fmt.Errorf("profile %q: minibatch size %d", m.Model, m.MinibatchSize)
	}
	for i, l := range m.Layers {
		if l.FwdTime < 0 || l.BwdTime < 0 || l.ActivationBytes < 0 || l.WeightBytes < 0 || l.BwdParamTime < 0 || l.BwdParamTime > l.BwdTime {
			return fmt.Errorf("profile %q: layer %d (%s) has negative fields or a parameter half longer than its backward", m.Model, i, l.Name)
		}
		if l.TotalTime() == 0 && l.ActivationBytes == 0 {
			return fmt.Errorf("profile %q: layer %d (%s) is empty", m.Model, i, l.Name)
		}
	}
	return nil
}

// WriteJSON serializes the profile.
func (m *ModelProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadJSON deserializes a profile.
func ReadJSON(r io.Reader) (*ModelProfile, error) {
	var m ModelProfile
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Measure profiles a real model the way the paper's profiler does: run
// one untimed minibatch, then numBatches timed ones, on one worker,
// recording per-layer forward and backward wall time (and the backward's
// parameter half), activation sizes, and weight sizes. The loss gradient
// is taken as ones (profiling only needs realistic compute, not a real
// objective).
//
// Timings are taken under the tensor package's current parallelism
// degree, which is recorded in the returned profile: set it (via
// tensor.SetParallelism, PIPEDREAM_PARALLELISM, or the pipeline's
// KernelParallelism option) to the per-worker degree the runtime will
// actually train with before profiling, or the measured Tl will not
// match the compute time the partitioner is sizing stages for.
func Measure(model *nn.Sequential, name string, ds data.Dataset, numBatches int) *ModelProfile {
	return measure(model, name, ds, numBatches, true)
}

// MeasureForward is Measure for the pass a serving stage runs: each layer's
// Forward(x, false), its context discarded. No Backward runs, so every
// backward time is zero and the profile's TimeRange is forward time.
func MeasureForward(model *nn.Sequential, name string, ds data.Dataset, numBatches int) *ModelProfile {
	return measure(model, name, ds, numBatches, false)
}

func measure(model *nn.Sequential, name string, ds data.Dataset, numBatches int, train bool) *ModelProfile {
	if numBatches < 1 {
		numBatches = 1
	}
	n := len(model.Layers)
	prof := &ModelProfile{Model: name, Parallelism: tensor.Parallelism(),
		Layers: make([]LayerProfile, n)}
	// Each layer runs as a one-layer Sequential, timed as the runtime runs
	// it: input pass, then parameter pass. Layer 0, always the input
	// stage's first, computes no input gradient.
	layers := make([]*nn.Sequential, n)
	for i, l := range model.Layers {
		layers[i] = model.Slice(i, i+1)
		prof.Layers[i].Name = l.Name()
		prof.Layers[i].WeightBytes = int64(nn.ParamBytes(l.Params()))
	}
	// Minibatch -1 runs batch 0 untimed: a process's first minibatch warms
	// the tensor pool, the pages and the code paths, and reads several
	// times slower than the ones after it.
	for b := -1; b < numBatches; b++ {
		batch := ds.Batch(max(b, 0))
		if b == 0 {
			prof.MinibatchSize = batch.X.Dim(0)
			prof.InputBytes = int64(batch.X.Bytes())
			for i := range prof.Layers {
				prof.Layers[i].FwdTime, prof.Layers[i].BwdTime, prof.Layers[i].BwdParamTime = 0, 0, 0
			}
		}
		x := batch.X
		ctxs := make([]*nn.SeqContext, n)
		acts := make([]*tensor.Tensor, n)
		for i, l := range layers {
			// An output no context reads is handed to the next layer, as
			// inside a stage (or across a cut: the worker owns a delivery).
			forward := l.ForwardOver
			if tensor.SharesStorage(x, batch.X) || slices.ContainsFunc(ctxs[:i], func(c *nn.SeqContext) bool { return c.Reads(x) }) {
				forward = l.Forward
			}
			t0 := time.Now()
			y, ctx := forward(x, train)
			prof.Layers[i].FwdTime += time.Since(t0).Seconds()
			ctxs[i], acts[i] = ctx, y
			x = y
		}
		// This function owns every output and input gradient: each gradient
		// is handed to the next backward and released once it has run, each
		// output once its own layer's backward (or Discard) has, a view (or
		// an output written over its input) with what it views.
		var grad *tensor.Tensor
		if train {
			grad = tensor.Ones(x.Shape...)
		}
		for i := n - 1; i >= 0; i-- {
			var next *tensor.Tensor
			var up func(*tensor.Tensor)
			in := batch.X
			t0 := time.Now()
			tUp, tEnd := t0, t0
			if i > 0 {
				in = acts[i-1]
				up = func(g *tensor.Tensor) { next, tUp = g, time.Now() }
			}
			if train {
				layers[i].BackwardWithHook(ctxs[i], grad, up, func(int) { tEnd = time.Now() })
				prof.Layers[i].BwdTime += tEnd.Sub(t0).Seconds()
				if prof.Layers[i].WeightBytes > 0 {
					prof.Layers[i].BwdParamTime += tEnd.Sub(tUp).Seconds()
				}
				if !tensor.SharesStorage(next, grad) {
					tensor.Put(grad)
				}
				grad = next
			} else {
				layers[i].Discard(ctxs[i])
			}
			if b == 0 {
				prof.Layers[i].ActivationBytes = int64(acts[i].Bytes())
			}
			if !tensor.SharesStorage(acts[i], in) {
				tensor.Put(acts[i])
			}
		}
		tensor.Put(grad)
	}
	inv := 1 / float64(numBatches)
	for i := range prof.Layers {
		prof.Layers[i].FwdTime *= inv
		prof.Layers[i].BwdTime *= inv
		prof.Layers[i].BwdParamTime *= inv
	}
	return prof
}
