package pipeline

import (
	"fmt"

	"pipedream/internal/nn"
	"pipedream/internal/tensor"
)

// weightVersions is a stage worker's table of weight versions (§3.3: a
// stage "maintains multiple versions of the weights, one per active
// minibatch"). Versions are kept, not copied: the stage's parameters live
// back to back in one flat array per version (tensor.Pack), the model's
// parameter headers are pointed at the array of whichever version an op
// runs under (bind: slice-header writes, no element moves), and the
// optimizer reads the latest version and writes the next one over the
// gradient arena, whose array it becomes; a freed version's array becomes
// the arena. A version is referenced by the table while it can
// still be looked up (the latest always; older ones until prune) and by
// every in-flight minibatch whose forward ran under it; its array returns
// to the free list when the last reference goes. So at most one array per
// listed version plus one per distinct held version exists — in-flight + 1
// under weight stashing — and the arrays are exactly sized and private to
// the worker: they never enter the tensor pool.
//
// Weight stashing, vertical sync and the naive pipeline differ only in
// which version a forward holds (the latest, the one its tag names, none)
// and in how far prune lets the table look back.
//
// Between two ops of the worker the model is bound to the latest version.
type weightVersions struct {
	params []*tensor.Tensor // the model's parameter headers, in Params() order
	// listed is the versions a lookup can return, in ascending key order;
	// the last one is the latest.
	listed []*weightVersion
	free   []*weightVersion
	bound  *weightVersion
	arrays int // arrays ever made but the first arena (the free ones included)
}

// weightVersion is one version of a stage's weights.
type weightVersion struct {
	// key counts the globally admitted minibatches the weights reflect
	// (stageWorker.reflected when the optimizer wrote them) — the unit of
	// vertical sync's version tags.
	key   int
	data  []float32
	views []*tensor.Tensor // per-parameter views of data, aligned with params
	// holders counts the in-flight minibatches whose forward ran under this
	// version; listed says the table still refers to it.
	holders int
	listed  bool
}

// newWeightVersions packs params into the array of version 0 and returns
// the table that lists it.
func newWeightVersions(params []*tensor.Tensor) *weightVersions {
	t := &weightVersions{params: params}
	v := t.wrap(tensor.Pack(params))
	v.listed = true
	t.listed = []*weightVersion{v}
	t.bound = v
	return t
}

// wrap makes the version whose array is data.
func (t *weightVersions) wrap(data []float32) *weightVersion {
	t.arrays++
	return &weightVersion{data: data, views: tensor.Views(t.params, data)}
}

// bytes is the size of one version's array.
func (t *weightVersions) bytes() int64 { return 4 * int64(len(t.bound.data)) }

// latest returns the version the optimizer wrote last.
func (t *weightVersions) latest() *weightVersion { return t.listed[len(t.listed)-1] }

// lookup returns the newest listed version whose key does not exceed tag,
// or nil when prune has dropped every such version.
func (t *weightVersions) lookup(tag int) *weightVersion {
	for i := len(t.listed) - 1; i >= 0; i-- {
		if v := t.listed[i]; v.key <= tag {
			return v
		}
	}
	return nil
}

// keys returns the listed versions' keys in ascending order.
func (t *weightVersions) keys() []int {
	keys := make([]int, len(t.listed))
	for i, v := range t.listed {
		keys[i] = v.key
	}
	return keys
}

// bind points the model's parameters at v's array.
func (t *weightVersions) bind(v *weightVersion) {
	if t.bound != v {
		tensor.Bind(t.params, v.data)
		t.bound = v
	}
}

// hold records that one more in-flight minibatch reads v until its
// backward ends. It returns the bytes the worker's stash grew by: the
// array's if v had no holder yet — a version counts once however many
// minibatches hold it.
func (t *weightVersions) hold(v *weightVersion) int64 {
	v.holders++
	if v.holders == 1 {
		return t.bytes()
	}
	return 0
}

// release ends one hold on v and returns the bytes the stash shrank by.
func (t *weightVersions) release(v *weightVersion) int64 {
	if v.holders <= 0 {
		panic(fmt.Sprintf("pipeline: weight version %d released with no holder", v.key))
	}
	v.holders--
	if v.holders > 0 {
		return 0
	}
	t.recycle(v)
	return t.bytes()
}

// recycle puts v's array on the free list if nothing refers to v any more.
func (t *weightVersions) recycle(v *weightVersion) {
	if v.listed || v.holders > 0 {
		return
	}
	if v == t.bound {
		panic(fmt.Sprintf("pipeline: weight version %d freed while the model is bound to it", v.key))
	}
	tensor.Scrub(v.data)
	t.free = append(t.free, v)
}

// step applies one optimizer update: it writes the version after the
// latest — keyed key, listed as the new latest — over the gradients (views
// of one array, still hot), rebinds grads to a free array (a new one, marked
// released, if none is free) and returns it. The model is left bound to the
// new version; the optimizer's write is the only time parameter bytes move.
func (t *weightVersions) step(opt nn.Optimizer, grads []*tensor.Tensor, key int) []float32 {
	arena, _ := tensor.Flat(grads) // nil, and Bind panics, if grads are not one array
	cur := t.latest()
	var next *weightVersion
	if n := len(t.free); n > 0 {
		next, t.free = t.free[n-1], t.free[:n-1]
	} else {
		next = t.wrap(make([]float32, len(cur.data)))
		tensor.Scrub(next.data)
	}
	free := next.data
	next.data, next.key, next.listed = arena, key, true
	tensor.Bind(next.views, arena)
	t.bind(next)
	opt.StepInto(t.params, cur.views, grads)
	t.listed = append(t.listed, next)
	tensor.Bind(grads, free)
	return free
}

// prune drops from the table the versions no lookup will ask for again:
// those with a key below min, except the newest at or below min, which
// stays as the floor for lookups in between. A dropped version lives on
// while an in-flight minibatch holds it.
func (t *weightVersions) prune(min int) {
	floor := 0
	for i, v := range t.listed {
		if v.key <= min {
			floor = i
		}
	}
	for _, v := range t.listed[:floor] {
		v.listed = false
		t.recycle(v)
	}
	t.listed = append(t.listed[:0], t.listed[floor:]...)
}

// reset leaves the latest version, re-keyed key, as the only listed one —
// after a restore or a rescale wrote new weights into it and set the
// worker's update counter.
func (t *weightVersions) reset(key int) {
	latest := t.latest()
	t.prune(latest.key)
	latest.key = key
}
