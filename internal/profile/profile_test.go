package profile

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pipedream/internal/data"
	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

func sampleProfile() *ModelProfile {
	return &ModelProfile{
		Model:         "sample",
		MinibatchSize: 4,
		InputBytes:    64,
		Layers: []LayerProfile{
			{Name: "a", FwdTime: 1, BwdTime: 2, ActivationBytes: 10, WeightBytes: 100},
			{Name: "b", FwdTime: 0.5, BwdTime: 1, ActivationBytes: 20, WeightBytes: 200},
			{Name: "c", FwdTime: 0.25, BwdTime: 0.5, ActivationBytes: 30, WeightBytes: 300},
		},
	}
}

func TestRangesAndTotals(t *testing.T) {
	p := sampleProfile()
	if got := p.TimeRange(0, 2); math.Abs(got-5.25) > 1e-12 {
		t.Fatalf("TimeRange = %v, want 5.25", got)
	}
	if got := p.TimeRange(1, 1); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("TimeRange(1,1) = %v, want 1.5", got)
	}
	if got := p.WeightRange(1, 2); got != 500 {
		t.Fatalf("WeightRange = %v, want 500", got)
	}
	if got := p.TotalWeightBytes(); got != 600 {
		t.Fatalf("TotalWeightBytes = %v, want 600", got)
	}
	if got := p.ActivationBytes(1); got != 20 {
		t.Fatalf("ActivationBytes = %v, want 20", got)
	}
	if p.NumLayers() != 3 {
		t.Fatalf("NumLayers = %d", p.NumLayers())
	}
}

func TestValidate(t *testing.T) {
	p := sampleProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleProfile()
	bad.Layers[1].FwdTime = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative time must fail")
	}
	empty := &ModelProfile{Model: "e", MinibatchSize: 1}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty profile must fail")
	}
	noBatch := sampleProfile()
	noBatch.MinibatchSize = 0
	if err := noBatch.Validate(); err == nil {
		t.Fatal("zero minibatch must fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Model != p.Model || q.NumLayers() != p.NumLayers() {
		t.Fatalf("round trip lost data: %+v", q)
	}
	if q.Layers[2].WeightBytes != 300 {
		t.Fatalf("layer field lost: %+v", q.Layers[2])
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"model":"x","minibatch_size":0,"layers":[]}`)); err == nil {
		t.Fatal("invalid profile must fail")
	}
}

func TestMeasureRealModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential(
		nn.NewDense(rng, "fc1", 4, 32),
		nn.NewTanh("t"),
		nn.NewDense(rng, "fc2", 32, 2),
	)
	ds := data.NewBlobs(5, 2, 4, 8, 4)
	prof := Measure(model, "mlp", ds, 3)
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	if prof.NumLayers() != 3 || prof.MinibatchSize != 8 {
		t.Fatalf("profile %+v", prof)
	}
	// Weight bytes must match the layers exactly.
	if got := prof.Layers[0].WeightBytes; got != int64(4*(4*32+32)) {
		t.Fatalf("fc1 weight bytes = %d", got)
	}
	if prof.Layers[1].WeightBytes != 0 {
		t.Fatal("tanh has no weights")
	}
	// Activation sizes: fc1 outputs [8,32] = 1024 B.
	if got := prof.Layers[0].ActivationBytes; got != 8*32*4 {
		t.Fatalf("fc1 activation bytes = %d", got)
	}
	// Times are positive.
	for i, l := range prof.Layers {
		if l.FwdTime <= 0 || l.BwdTime <= 0 {
			t.Fatalf("layer %d has non-positive times: %+v", i, l)
		}
	}
	if prof.InputBytes != 8*4*4 {
		t.Fatalf("input bytes = %d", prof.InputBytes)
	}
	// The input stage's first layer runs its parameter half alone; a
	// layer without parameters has none; fc2 has both halves.
	if l := prof.Layers[0]; l.BwdParamTime != l.BwdTime {
		t.Errorf("fc1: parameter half %v of a %v backward, want all of it", l.BwdParamTime, l.BwdTime)
	}
	if l := prof.Layers[1]; l.BwdParamTime != 0 {
		t.Errorf("tanh: parameter half %v, want 0", l.BwdParamTime)
	}
	if l := prof.Layers[2]; l.BwdParamTime <= 0 || l.BwdParamTime >= l.BwdTime {
		t.Errorf("fc2: parameter half %v of a %v backward, want a part of it", l.BwdParamTime, l.BwdTime)
	}
	prof.Layers[2].BwdParamTime = 2 * prof.Layers[2].BwdTime
	if err := prof.Validate(); err == nil {
		t.Error("a parameter half longer than its backward must fail validation")
	}
}

// batchLog records the minibatch indices a profiler reads.
type batchLog struct {
	data.Dataset
	read []int
}

func (l *batchLog) Batch(i int) data.Batch {
	l.read = append(l.read, i)
	return l.Dataset.Batch(i)
}

// Measure runs batch 0 once untimed before timing numBatches minibatches,
// so a one-batch profile times a warm minibatch, not the process's first.
func TestMeasureWarmsUpOnBatchZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := nn.NewSequential(nn.NewDense(rng, "fc", 4, 2))
	ds := &batchLog{Dataset: data.NewBlobs(5, 2, 4, 8, 4)}
	Measure(model, "mlp", ds, 3)
	if want := []int{0, 0, 1, 2}; !slices.Equal(ds.read, want) {
		t.Fatalf("Measure read batches %v, want %v", ds.read, want)
	}
}

// countingLayer counts its Backward calls.
type countingLayer struct {
	nn.Layer
	backwards *int
}

func (l countingLayer) Backward(ctx nn.Context, gradOut *tensor.Tensor) *tensor.Tensor {
	*l.backwards++
	return l.Layer.Backward(ctx, gradOut)
}

// MeasureForward, the serving profile, runs each layer's forward pass on
// Measure's minibatches and never its Backward: every backward time is
// zero, so a profile's TimeRange is the pass serving runs.
func TestMeasureForwardRunsNoBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	backwards := 0
	model := nn.NewSequential(
		countingLayer{nn.NewDense(rng, "fc1", 4, 32), &backwards},
		countingLayer{nn.NewTanh("t"), &backwards},
		countingLayer{nn.NewDense(rng, "fc2", 32, 2), &backwards},
	)
	ds := &batchLog{Dataset: data.NewBlobs(5, 2, 4, 8, 4)}
	prof := MeasureForward(model, "mlp", ds, 2)
	if backwards != 0 {
		t.Fatalf("MeasureForward ran %d Backward calls", backwards)
	}
	if want := []int{0, 0, 1}; !slices.Equal(ds.read, want) {
		t.Fatalf("MeasureForward read batches %v, want %v", ds.read, want)
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, l := range prof.Layers {
		if l.FwdTime <= 0 || l.BwdTime != 0 || l.BwdParamTime != 0 {
			t.Errorf("layer %d: %+v, want a forward time and no backward", i, l)
		}
	}
	if got := prof.Layers[0].ActivationBytes; got != 8*32*4 {
		t.Fatalf("fc1 activation bytes = %d", got)
	}
	Measure(model, "mlp", ds, 1)
	if backwards == 0 {
		t.Fatal("the counting layers count no Backward under Measure")
	}
}
