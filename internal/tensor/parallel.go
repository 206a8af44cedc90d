package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The parallel compute substrate: a single shared, bounded worker pool
// that every kernel in this package dispatches panel/image chunks to.
//
// Sharing one pool is what lets concurrently executing pipeline stages
// (each a goroutine in internal/pipeline's 1F1B runtime) use parallel
// kernels without oversubscribing the machine: the pool owns at most
// poolWorkers goroutines in total, and when the pool is saturated a
// caller simply executes its chunk inline. Stage-level parallelism ×
// kernel-level parallelism therefore never exceeds NumCPU + the number
// of stage goroutines already runnable, instead of multiplying.
//
// ParallelismEnv overrides the default degree at process start;
// SetParallelism overrides it at runtime. Degree 1 short-circuits every
// kernel to its serial path, as does any dispatch whose estimated work
// is below serialThreshold (tiny tensors never pay goroutine overhead).

// ParallelismEnv is the environment variable consulted at init for the
// default parallelism degree (e.g. PIPEDREAM_PARALLELISM=4).
const ParallelismEnv = "PIPEDREAM_PARALLELISM"

// serialThreshold is the minimum estimated work (in multiply-add
// units, n×workPerItem) a kernel must present before chunks are
// dispatched to the pool. Below it, goroutine hand-off costs more than
// the parallelism recovers. It also gates im2col, col2im and
// Transpose2D, whose per-unit cost the AVX2 kernels did not change.
//
// The value is not calibrated to the 2-vCPU 2.1 GHz Xeon VM the
// benchmarks run on, and BenchmarkMatMulDispatchCrossover (MatMulInto
// at degree 1 / degree 2, µs) shows why it was left alone when the AVX2
// kernels landed. With them: 64K 2.7 / 4.1, 512K 23 / 25, 2048K 93 /
// 105, 4096K 193 / 209, 8192K 385 / 294, 16384K 799 / 493. With the
// scalar loops before them: 64K 21 / 29, 512K 207 / 187, 1024K 395 /
// 320, 2048K 890 / 547. Degree 2 first wins where the inline time
// passes 200–400 µs under either kernel, far above the hand-off (about
// 1 µs, the 64K pair) this constant amortises. The two vCPUs do not
// share one core's vector units: two 64×256×256 products pinned one to
// each run at 0.93× [0.85, 0.99] the speed of one alone
// (BenchmarkMatMulShapes, six alternating rounds).
const serialThreshold = 64 * 1024

var parDegree atomic.Int32

func init() {
	d := runtime.GOMAXPROCS(0)
	if s := os.Getenv(ParallelismEnv); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			d = v
		}
	}
	parDegree.Store(int32(d))
}

// SetParallelism sets the degree of parallelism used by the tensor
// kernels and returns the previous value. Degree 1 forces every kernel
// onto its serial path; values above the pool size still chunk the work
// but excess chunks run inline in the caller. n <= 0 resets to
// GOMAXPROCS.
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(parDegree.Swap(int32(n)))
}

// Parallelism returns the current degree of parallelism.
func Parallelism() int { return int(parDegree.Load()) }

// ScopeParallelism sizes the kernel fan-out to the cores each of workers
// concurrent workers (pipeline stages, serving stages) gets: it lowers the
// degree to NumCPU/workers, at least 1, and returns the func that ends the
// scope. Every worker dispatches to the one bounded pool, so the two
// levels never oversubscribe the machine either way; the lower degree
// keeps compute-balanced workers off the pool's dispatch queue. Scopes may
// overlap (serving replicas do): the last to end restores the degree the
// first found. With none live, a degree set through ParallelismEnv, or
// already at most that share, is left alone and the scope does nothing.
func ScopeParallelism(workers int) (restore func()) {
	scopes.Lock()
	defer scopes.Unlock()
	per, cur := max(runtime.NumCPU()/workers, 1), Parallelism()
	if scopes.live == 0 && (os.Getenv(ParallelismEnv) != "" || per >= cur) {
		return func() {}
	}
	if scopes.live++; scopes.live == 1 {
		scopes.outer = cur
	}
	SetParallelism(min(per, cur))
	return func() {
		scopes.Lock()
		defer scopes.Unlock()
		if scopes.live--; scopes.live == 0 {
			SetParallelism(scopes.outer)
		}
	}
}

// scopes counts the live scopes and keeps the degree the first one found.
var scopes struct {
	sync.Mutex
	live, outer int
}

// task is one chunk of a parallelFor dispatch.
type task struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

var (
	poolOnce    sync.Once
	poolWorkers int
	taskQueue   chan task
)

// ensurePool starts the shared worker pool. The pool is sized once from
// GOMAXPROCS (with a floor of 2 so single-core hosts still exercise the
// concurrent path under the race detector); the effective parallelism
// is governed separately by SetParallelism.
func ensurePool() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		if poolWorkers < 2 {
			poolWorkers = 2
		}
		taskQueue = make(chan task, 4*poolWorkers)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for t := range taskQueue {
					t.fn(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	})
}

// parallelFor runs fn over disjoint sub-ranges covering [0, n).
// workPerItem is the caller's estimate of the cost of one item in
// multiply-add units (e.g. k·n for one output row of a matmul); it
// gates the serial fallback. The caller always executes the final chunk
// itself and, when the shared pool is saturated, any chunk that could
// not be enqueued — dispatch never blocks and never oversubscribes.
func parallelFor(n, workPerItem int, fn func(lo, hi int)) {
	p := int(parDegree.Load())
	if p <= 1 || n <= 1 || workPerItem <= 0 || n*workPerItem < serialThreshold {
		fn(0, n)
		return
	}
	ensurePool()
	chunks := p
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+size < n {
		hi := lo + size
		wg.Add(1)
		select {
		case taskQueue <- task{lo: lo, hi: hi, fn: fn, wg: &wg}:
		default:
			// Pool saturated (other kernels — often other pipeline
			// stages — hold every worker): run inline instead of
			// spawning beyond the bound.
			fn(lo, hi)
			wg.Done()
		}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}
