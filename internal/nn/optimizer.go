package nn

import (
	"fmt"
	"math"

	"pipedream/internal/tensor"
)

// Optimizer applies a gradient step to parameters. Implementations keep
// per-parameter state keyed by parameter identity, so one optimizer can
// drive any number of layers as long as the same tensors are passed in.
type Optimizer interface {
	// Step applies one update in place: StepInto(params, params, grads).
	Step(params, grads []*tensor.Tensor)
	// StepInto applies one update out of place: it reads the current
	// values from cur and writes the updated ones to next, element for
	// element what Step would have left in cur. All three lists are
	// aligned; state is keyed by next[i], next[i] may be cur[i], and it may
	// share storage with grads[i]: each gradient element is read before the
	// parameter element in its place is written. The pipeline runtime uses
	// it to write weight version n+1 over the gradients while in-flight
	// minibatches still read version n.
	StepInto(next, cur, grads []*tensor.Tensor)
	// LR returns the current learning rate.
	LR() float64
	// SetLR changes the learning rate (for schedules and warm-up).
	SetLR(lr float64)
}

// Stateful is implemented by optimizers whose update rule carries state
// (momentum buffers, Adam moments). Checkpointing code uses it to persist
// and restore that state so training resumes exactly after a failure.
type Stateful interface {
	// StateSnapshot returns the optimizer's state tensors for the given
	// parameters, in a stable order aligned with params.
	StateSnapshot(params []*tensor.Tensor) [][]*tensor.Tensor
	// RestoreState installs previously snapshotted state for params.
	RestoreState(params []*tensor.Tensor, state [][]*tensor.Tensor)
}

func checkAligned(next, cur, grads []*tensor.Tensor) {
	if len(next) != len(grads) || len(cur) != len(grads) {
		panic(fmt.Sprintf("nn: %d params (%d current) with %d grads", len(next), len(cur), len(grads)))
	}
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay — the optimizer the paper uses for VGG-16, ResNet-50, AWD LM, and
// S2VT.
type SGD struct {
	lr          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD creates an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{lr: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor) { s.StepInto(params, params, grads) }

// StepInto implements Optimizer.
func (s *SGD) StepInto(next, cur, grads []*tensor.Tensor) {
	checkAligned(next, cur, grads)
	for i, p := range next {
		w := cur[i].Data
		g := decayedGrad(grads[i], s.WeightDecay, w)
		if s.Momentum == 0 {
			tensor.AddScaledInto(p.Data, w, float32(-s.lr), g.Data)
		} else {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Shape...)
				s.velocity[p] = v
			}
			v.Scale(float32(s.Momentum)).Add(g)
			tensor.AddScaledInto(p.Data, w, float32(-s.lr), v.Data)
		}
		if g != grads[i] {
			tensor.Put(g)
		}
	}
}

// decayedGrad returns the gradient with L2 weight decay folded in,
// g + decay·w for the current weights w, in pooled scratch that the
// caller recycles once the step has used it; without decay it is g itself.
func decayedGrad(g *tensor.Tensor, decay float64, w []float32) *tensor.Tensor {
	if decay == 0 {
		return g
	}
	d := tensor.GetRaw(g.Shape...)
	tensor.AddScaledInto(d.Data, g.Data, float32(decay), w)
	return d
}

// StateSnapshot implements Stateful: one velocity tensor per parameter
// (zero if never stepped).
func (s *SGD) StateSnapshot(params []*tensor.Tensor) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Shape...)
		}
		out[i] = []*tensor.Tensor{v.Clone()}
	}
	return out
}

// RestoreState implements Stateful.
func (s *SGD) RestoreState(params []*tensor.Tensor, state [][]*tensor.Tensor) {
	for i, p := range params {
		if len(state[i]) != 1 {
			panic(fmt.Sprintf("nn: SGD state for param %d has %d tensors", i, len(state[i])))
		}
		s.velocity[p] = state[i][0].Clone()
	}
}

// Adam is the Adam optimizer (used by the paper for GNMT).
type Adam struct {
	lr           float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	m, v         map[*tensor.Tensor]*tensor.Tensor
}

// NewAdam creates an Adam optimizer with the standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*tensor.Tensor]*tensor.Tensor), v: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*tensor.Tensor) { a.StepInto(params, params, grads) }

// StepInto implements Optimizer.
func (a *Adam) StepInto(next, cur, grads []*tensor.Tensor) {
	checkAligned(next, cur, grads)
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range next {
		g, w := grads[i], cur[i].Data
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Shape...)
			v := tensor.New(p.Shape...)
			a.m[p], a.v[p] = m, v
		}
		v := a.v[p]
		for j := range p.Data {
			gj := float64(g.Data[j])
			mj := a.Beta1*float64(m.Data[j]) + (1-a.Beta1)*gj
			vj := a.Beta2*float64(v.Data[j]) + (1-a.Beta2)*gj*gj
			m.Data[j], v.Data[j] = float32(mj), float32(vj)
			p.Data[j] = w[j] - float32(a.lr*(mj/bc1)/(math.Sqrt(vj/bc2)+a.Eps))
		}
	}
}

// StateSnapshot implements Stateful: first and second moments per
// parameter, plus the step counter encoded as a 1-element tensor on the
// first parameter.
func (a *Adam) StateSnapshot(params []*tensor.Tensor) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Shape...)
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(p.Shape...)
		}
		entry := []*tensor.Tensor{m.Clone(), v.Clone()}
		if i == 0 {
			t := tensor.New(1)
			t.Data[0] = float32(a.t)
			entry = append(entry, t)
		}
		out[i] = entry
	}
	return out
}

// RestoreState implements Stateful.
func (a *Adam) RestoreState(params []*tensor.Tensor, state [][]*tensor.Tensor) {
	for i, p := range params {
		if len(state[i]) < 2 {
			panic(fmt.Sprintf("nn: Adam state for param %d has %d tensors", i, len(state[i])))
		}
		a.m[p] = state[i][0].Clone()
		a.v[p] = state[i][1].Clone()
		if i == 0 && len(state[i]) == 3 {
			a.t = int(state[i][2].Data[0])
		}
	}
}

// LARS implements Layer-wise Adaptive Rate Scaling (You et al.), the
// large-minibatch baseline of Figure 13: each parameter tensor's update is
// scaled by trust · ‖w‖ / (‖g‖ + wd·‖w‖).
type LARS struct {
	lr          float64
	Momentum    float64
	WeightDecay float64
	Trust       float64
	velocity    map[*tensor.Tensor]*tensor.Tensor
}

// NewLARS creates a LARS optimizer with the given trust coefficient.
func NewLARS(lr, momentum, weightDecay, trust float64) *LARS {
	return &LARS{lr: lr, Momentum: momentum, WeightDecay: weightDecay, Trust: trust,
		velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// LR implements Optimizer.
func (l *LARS) LR() float64 { return l.lr }

// SetLR implements Optimizer.
func (l *LARS) SetLR(lr float64) { l.lr = lr }

// Step implements Optimizer.
func (l *LARS) Step(params, grads []*tensor.Tensor) { l.StepInto(params, params, grads) }

// StepInto implements Optimizer.
func (l *LARS) StepInto(next, cur, grads []*tensor.Tensor) {
	checkAligned(next, cur, grads)
	for i, p := range next {
		w := cur[i]
		g := decayedGrad(grads[i], l.WeightDecay, w.Data)
		wNorm, gNorm := w.Norm(), g.Norm()
		localLR := l.lr
		if wNorm > 0 && gNorm > 0 {
			localLR = l.lr * l.Trust * wNorm / gNorm
		}
		v, ok := l.velocity[p]
		if !ok {
			v = tensor.New(p.Shape...)
			l.velocity[p] = v
		}
		v.Scale(float32(l.Momentum)).AddScaled(float32(localLR), g)
		tensor.AddScaledInto(p.Data, w.Data, -1, v.Data) // w − v: negating v is exact
		if g != grads[i] {
			tensor.Put(g)
		}
	}
}

// StateSnapshot implements Stateful: one velocity tensor per parameter.
func (l *LARS) StateSnapshot(params []*tensor.Tensor) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		v, ok := l.velocity[p]
		if !ok {
			v = tensor.New(p.Shape...)
		}
		out[i] = []*tensor.Tensor{v.Clone()}
	}
	return out
}

// RestoreState implements Stateful.
func (l *LARS) RestoreState(params []*tensor.Tensor, state [][]*tensor.Tensor) {
	for i, p := range params {
		if len(state[i]) != 1 {
			panic(fmt.Sprintf("nn: LARS state for param %d has %d tensors", i, len(state[i])))
		}
		l.velocity[p] = state[i][0].Clone()
	}
}
