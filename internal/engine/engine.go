// Package engine provides the parallel execution substrate that stands
// in for the paper's CUDA/GPU layer.
//
// The paper's "GPU enablement" consists of three techniques: FFT-based
// convolution on the device, batched parallel FFTs, and kernel fusion
// (Eq. 17). All of them are parallel-scheduling techniques, so this
// package reproduces the architectural split with a worker-pool engine:
//
//   - CPU() — a single-worker engine; every stage runs serially. This is
//     the reference configuration corresponding to the paper's "CPU"
//     column in Table II.
//   - GPU() — an engine with one worker per logical core that fans
//     element ranges, FFT row/column passes, and per-kernel loops across
//     all cores, corresponding to the "GPU" column.
//
// Both engines compute bit-identical results; only scheduling differs.
//
// Like a resident device, multi-worker engines start no threads per
// call. The process keeps one warm set of GOMAXPROCS−1 helper
// goroutines (helpers.go), shared by every engine. A ForChunk, For or
// Map call publishes a reusable task descriptor and runs as its first
// participant; up to Workers()−1 helpers join, and every participant
// claims items from one atomic counter until none are left. Serial
// engines never touch the helpers. Which participant runs which item
// varies from call to call, so every body must be a pure function of
// its index range, using any per-worker scratch only within one item.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"lsopc/internal/obs"
)

// Engine schedules data-parallel loops over a fixed number of workers.
// The zero value is not usable; construct with New, CPU, or GPU.
type Engine struct {
	workers int
	name    string

	// Optional per-worker busy-time accumulator. When nil (the default)
	// scheduling paths pay only a nil check; when set, every
	// participant's body time is added to its slot so callers can
	// compute utilization.
	busy    *obs.WorkerBusy
	busyOff int // this engine's first slot in busy (for Split sub-engines)

	// call is the engine's reusable task descriptor. inCall marks it
	// taken; a call that finds it taken (a concurrent call on the same
	// engine, or a body calling its own engine) uses a fresh one.
	call   task
	inCall atomic.Bool
}

// New returns an engine with the given worker count (at least 1) and a
// human-readable name used in reports.
func New(name string, workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers, name: name}
}

// CPU returns the serial reference engine (1 worker), the analogue of
// the paper's CPU-only runs.
func CPU() *Engine { return New("cpu", 1) }

// GPU returns the parallel engine with one worker per logical core, the
// analogue of the paper's CUDA runs.
func GPU() *Engine { return New("gpu", runtime.NumCPU()) }

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// Name returns the engine's report name ("cpu", "gpu", ...).
func (e *Engine) Name() string { return e.name }

// String implements fmt.Stringer.
func (e *Engine) String() string { return fmt.Sprintf("engine(%s, %d workers)", e.name, e.workers) }

// Serial reports whether the engine runs with a single worker.
func (e *Engine) Serial() bool { return e.workers == 1 }

// InstrumentBusy attaches a per-worker busy-time accumulator to the
// engine and returns the engine for chaining. Pass nil to detach. The
// accumulator should have at least Workers() slots; out-of-range slots
// clamp (see obs.WorkerBusy.Add). A call's participant with ordinal k
// adds its body time to slot k. Sub-engines created by Split inherit
// the accumulator with disjoint slot ranges, so sub-engines running
// concurrently attribute busy time to distinct slots.
func (e *Engine) InstrumentBusy(wb *obs.WorkerBusy) *Engine {
	e.busy = wb
	e.busyOff = 0
	return e
}

// Busy returns the attached busy-time accumulator, or nil.
func (e *Engine) Busy() *obs.WorkerBusy { return e.busy }

// Split partitions the engine's workers into n sub-engines for
// concurrent work — jobs of a session pool, chip tiles — so that their
// ForChunk/Map calls together do not oversubscribe the machine. Workers
// are distributed as evenly as possible and every sub-engine keeps at
// least one worker, so splitting a serial engine yields n serial
// engines. Sub-engines are named "<name>/<index>" for reports.
func (e *Engine) Split(n int) []*Engine {
	if n < 1 {
		n = 1
	}
	subs := make([]*Engine, n)
	base, rem := e.workers/n, e.workers%n
	off := e.busyOff
	for i := range subs {
		w := base
		if i < rem {
			w++
		}
		subs[i] = New(fmt.Sprintf("%s/%d", e.name, i), w)
		subs[i].busy = e.busy
		subs[i].busyOff = off
		off += w
	}
	return subs
}

// chunksPerWorker is the number of ForChunk pieces per worker: enough
// for a participant that joins late, or a core that is briefly taken,
// to be absorbed by the others' claims, and few enough that claiming
// costs nothing next to a piece.
const chunksPerWorker = 8

// For runs body(i) for every i in [0, n), splitting the index range into
// chunks like ForChunk, and blocks until all iterations complete. With a
// single worker it is a plain loop.
func (e *Engine) For(n int, body func(i int)) {
	e.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunk runs body(lo, hi) over a partition of [0, n) into contiguous
// half-open chunks and blocks until all complete. A serial engine runs
// one chunk, [0, n); a multi-worker engine splits [0, n) into up to
// chunksPerWorker·Workers() near-equal chunks, which the participants
// claim dynamically. Chunked form lets callers hoist scratch out of the
// inner loop.
func (e *Engine) ForChunk(n int, body func(lo, hi int)) { e.run(n, body, nil) }

// Map applies body to each index of [0, n) like For, but gives the body
// the ordinal of the participant running it, so it can use per-worker
// scratch buffers. Ordinals are below Workers(), and no two
// participants of one call share one; which indices an ordinal runs
// varies from call to call.
func (e *Engine) Map(n int, body func(worker, i int)) { e.run(n, nil, body) }

// run executes ForChunk's chunk body or Map's index body (exactly one
// is non-nil) over [0, n). On a serial
// engine, or for a single item, the caller runs a local task alone;
// otherwise the call publishes the engine's descriptor to the helper
// set and runs as its participant 0.
func (e *Engine) run(n int, chunk func(lo, hi int), each func(worker, i int)) {
	if n <= 0 {
		return
	}
	items := n
	if chunk != nil {
		items = 1
		if e.workers > 1 {
			items = min(n, chunksPerWorker*e.workers)
		}
	}
	if e.workers == 1 || items == 1 {
		t := task{e: e, n: n, items: items, chunk: chunk, each: each}
		t.work(0)
		return
	}
	t := &e.call
	if !e.inCall.CompareAndSwap(false, true) {
		t = new(task)
	}
	t.e, t.n, t.items = e, n, items
	t.chunk, t.each = chunk, each
	t.labels = getProfLabel()
	t.limit = min(e.workers, items) - 1
	t.next.Store(0)
	t.joined = 0
	defer e.finish(t)
	pool().publish(t)
	t.work(0)
}

// finish withdraws t from the helper set, waits for the helpers that
// joined it to leave, and frees the engine's descriptor for the next
// call. It runs deferred, so a body that panics on the caller leaves no
// task behind.
func (e *Engine) finish(t *task) {
	pool().withdraw(t)
	t.wait()
	t.chunk, t.each, t.labels = nil, nil, nil
	if t == &e.call {
		e.inCall.Store(false)
	}
}

// task is one call: items work items, claimed from next by every
// participant. ForChunk item k is the chunk [k·n/items, (k+1)·n/items);
// Map item i is index i. Only multi-item calls on multi-worker
// engines are published to the helpers.
type task struct {
	e        *Engine
	n, items int
	chunk    func(lo, hi int)
	each     func(worker, i int)
	labels   unsafe.Pointer // the caller's pprof labels
	next     atomic.Int64

	// Guarded by the helper set's lock: the helpers admitted so far
	// (ordinals 1..joined), at most limit of them, and the task's link
	// in the open list.
	joined, limit int
	link          *task
	listed        bool

	// active counts the admitted helpers still inside the task; done
	// lets the caller block on them once it stops spinning.
	active atomic.Int32
	done   sync.WaitGroup
}

// work claims and runs items as participant worker until none are
// left, then adds the time from its first claim to the worker's busy
// slot when an accumulator is attached.
func (t *task) work(worker int) {
	busy := t.e.busy
	var t0 time.Time
	ran := false
	for {
		k := int(t.next.Add(1) - 1)
		if k >= t.items {
			break
		}
		if busy != nil && !ran {
			t0 = time.Now()
		}
		ran = true
		if t.chunk != nil {
			t.chunk(k*t.n/t.items, (k+1)*t.n/t.items)
		} else {
			t.each(worker, k)
		}
	}
	if busy != nil && ran {
		busy.Add(t.e.busyOff+worker, time.Since(t0))
	}
}

// callerSpin bounds how long a caller that has run out of items spins
// for its helpers' last items before it parks.
const callerSpin = 200 * time.Microsecond

// wait returns once every helper admitted to t has left it. Helpers
// are admitted only while t is listed, so after withdraw the set of
// helpers to wait for is fixed.
func (t *task) wait() {
	if t.active.Load() == 0 {
		return
	}
	start := time.Now()
	for t.active.Load() != 0 {
		if time.Since(start) > callerSpin {
			t.done.Wait()
			return
		}
		runtime.Gosched()
	}
}
