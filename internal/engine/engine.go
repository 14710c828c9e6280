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
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"lsopc/internal/obs"
)

// Engine schedules data-parallel loops over a fixed number of workers.
// The zero value is not usable; construct with New, CPU, or GPU.
type Engine struct {
	workers int
	name    string

	// Optional per-worker busy-time accumulator. When nil (the default)
	// scheduling paths pay only a nil check; when set, every worker's
	// body time is added to its slot so callers can compute utilization.
	busy    *obs.WorkerBusy
	busyOff int // this engine's first slot in busy (for Split sub-engines)
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
// clamp (see obs.WorkerBusy.Add). Sub-engines created by Split inherit
// the accumulator with disjoint slot ranges, so nested fan-outs
// attribute busy time to distinct physical workers. Only the leaf
// chunked loops (ForChunk, For, Map) record busy time — Parallel does
// not, because its tasks typically fan out through those same loops on
// the engine and timing both levels would double-count the interval.
func (e *Engine) InstrumentBusy(wb *obs.WorkerBusy) *Engine {
	e.busy = wb
	e.busyOff = 0
	return e
}

// Busy returns the attached busy-time accumulator, or nil.
func (e *Engine) Busy() *obs.WorkerBusy { return e.busy }

// Split partitions the engine's workers into n sub-engines for nested
// parallelism: an outer Parallel over n independent tasks (e.g. the
// three process corners) can hand each task a sub-engine so the inner
// ForChunk/Map fan-outs do not oversubscribe the machine. Workers are
// distributed as evenly as possible and every sub-engine keeps at least
// one worker, so splitting a serial engine yields n serial engines (the
// outer Parallel then degenerates to an in-order loop and the whole
// computation stays on one worker). Sub-engines are named
// "<name>/<index>" for reports.
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

// For runs body(i) for every i in [0, n), splitting the index range into
// contiguous chunks across the engine's workers. It blocks until all
// iterations complete. With a single worker it degenerates to a plain
// loop with no goroutine overhead.
func (e *Engine) For(n int, body func(i int)) {
	e.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunk runs body(lo, hi) over a partition of [0, n) into contiguous
// half-open chunks, one chunk per worker (fewer if n is small). Chunked
// form lets callers hoist per-worker scratch out of the inner loop.
func (e *Engine) ForChunk(n int, body func(lo, hi int)) { e.run(n, body, nil) }

// Parallel runs the given tasks concurrently (bounded by the worker
// count) and blocks until all complete. Used to overlap independent
// kernel convolutions and process-corner simulations.
func (e *Engine) Parallel(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if e.workers == 1 || len(tasks) == 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, t := range tasks {
		t := t
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t()
		}()
	}
	wg.Wait()
}

// Map applies body to each index of [0, n) like For, but gives the body
// its worker ordinal so it can use per-worker scratch buffers. Worker
// ordinals are dense in [0, Workers()).
func (e *Engine) Map(n int, body func(worker, i int)) { e.run(n, nil, body) }

// run executes ForChunk's chunk body or Map's index body (exactly one is
// non-nil) over [0, n) split into ⌈n/w⌉-sized chunks, w = min(Workers,
// n). Chunk k runs as worker k; chunk 0 runs on the calling goroutine,
// so a call spawns w−1 goroutines and a serial engine none.
func (e *Engine) run(n int, chunk func(lo, hi int), each func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := min(e.workers, n)
	size := (n + w - 1) / w
	if w == 1 {
		e.exec(0, 0, n, chunk, each)
		return
	}
	var wg sync.WaitGroup
	for k := 1; k < w && k*size < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e.exec(k, k*size, min((k+1)*size, n), chunk, each)
		}(k)
	}
	e.exec(0, 0, size, chunk, each)
	wg.Wait()
}

// exec runs worker's chunk [lo, hi) and adds its time to the worker's
// busy slot when an accumulator is attached.
func (e *Engine) exec(worker, lo, hi int, chunk func(lo, hi int), each func(worker, i int)) {
	var t0 time.Time
	if e.busy != nil {
		t0 = time.Now()
	}
	if chunk != nil {
		chunk(lo, hi)
	} else {
		for i := lo; i < hi; i++ {
			each(worker, i)
		}
	}
	if e.busy != nil {
		e.busy.Add(e.busyOff+worker, time.Since(t0))
	}
}
