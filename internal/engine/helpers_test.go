package engine

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lsopc/internal/obs"
)

// contractShapes runs check for every worker count and item count of
// the scheduling contract tests, on an engine of that many workers used
// directly and as the second half of a Split, whose busy slots start at
// off. busy is the accumulator both share.
func contractShapes(t *testing.T, check func(t *testing.T, e *Engine, n, off int, busy *obs.WorkerBusy)) {
	for _, workers := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 4, 7, 37} {
			for _, split := range []bool{false, true} {
				busy := obs.NewWorkerBusy(2 * workers)
				e, off := New("t", workers).InstrumentBusy(busy), 0
				if split {
					e, off = New("t", 2*workers).InstrumentBusy(busy).Split(2)[1], workers
				}
				check(t, e, n, off, busy)
				if t.Failed() {
					t.Fatalf("workers=%d n=%d split=%v", workers, n, split)
				}
			}
		}
	}
}

// TestEveryIndexRunsOnce checks that ForChunk, Map and For run every
// index of [0, n) exactly once, and that ForChunk's chunks are
// non-empty, in range and disjoint.
func TestEveryIndexRunsOnce(t *testing.T) {
	contractShapes(t, func(t *testing.T, e *Engine, n, _ int, _ *obs.WorkerBusy) {
		counts := make([]atomic.Int32, n)
		e.ForChunk(n, func(lo, hi int) {
			if lo < 0 || lo >= hi || hi > n {
				t.Errorf("bad chunk [%d,%d)", lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		e.Map(n, func(_, i int) { counts[i].Add(1) })
		e.For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 3 {
				t.Errorf("index %d ran %d times over ForChunk, Map and For, want 3", i, c)
			}
		}
	})
}

// TestChunkOrdinalsAndBusySlots checks the participant contract that
// per-worker scratch and utilization rely on: participants running at
// the same time never share an ordinal, every ordinal is below
// Workers(), and busy time lands only in the engine's own WorkerBusy
// slots (offset by its first slot after Split), covering every item's
// body time.
func TestChunkOrdinalsAndBusySlots(t *testing.T) {
	const pause = 200 * time.Microsecond
	contractShapes(t, func(t *testing.T, e *Engine, n, off int, busy *obs.WorkerBusy) {
		inside := make([]atomic.Bool, e.Workers())
		enter := func(worker int) bool {
			if worker < 0 || worker >= e.Workers() {
				t.Errorf("ordinal %d outside [0, %d)", worker, e.Workers())
				return false
			}
			if !inside[worker].CompareAndSwap(false, true) {
				t.Errorf("two participants ran as ordinal %d at once", worker)
				return false
			}
			return true
		}
		busy.Reset()
		e.Map(n, func(worker, _ int) {
			if enter(worker) {
				time.Sleep(pause)
				inside[worker].Store(false)
			}
		})
		var total time.Duration
		for k, d := range busy.PerWorker() {
			if (k < off || k >= off+e.Workers()) && d != 0 {
				t.Errorf("slot %d outside the engine's range has busy %v", k, d)
			}
			total += d
		}
		if total < time.Duration(n)*pause {
			t.Errorf("busy total %v below the %d items' %v", total, n, time.Duration(n)*pause)
		}
	})
}

// TestCallsStartNoGoroutines checks that once the helper set is up,
// calls on multi-worker engines leave the goroutine count where it was.
func TestCallsStartNoGoroutines(t *testing.T) {
	engines := []*Engine{New("a", 2), New("b", 3), New("c", 5).Split(2)[0]}
	var sink atomic.Int64
	call := func() {
		for _, e := range engines {
			e.ForChunk(64, func(lo, hi int) { sink.Add(int64(hi - lo)) })
			e.Map(16, func(_, i int) { sink.Add(int64(i)) })
		}
	}
	call()
	before := runtime.NumGoroutine()
	peak := before
	for range 1000 {
		call()
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak > before {
		t.Fatalf("goroutines grew from %d to %d across 1000 calls", before, peak)
	}
}

// TestWarmCallAllocatesNothing checks that a call on a warm engine
// reuses its task descriptor.
func TestWarmCallAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		e := New("t", workers)
		data := make([]float64, 1024)
		chunk := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i]++
			}
		}
		each := func(_, i int) { data[i]++ }
		if avg := testing.AllocsPerRun(100, func() {
			e.ForChunk(len(data), chunk)
			e.Map(len(data), each)
		}); avg != 0 {
			t.Fatalf("workers=%d: warm calls allocate %.1f objects/op, want 0", workers, avg)
		}
	}
}

// TestConcurrentEnginesAndNestedCalls drives calls from 8 goroutines,
// each on its own multi-worker engine, while one body calls a second
// engine; every call must complete with every index run once. Run
// under -race (make race) it also checks the descriptor hand-offs.
func TestConcurrentEnginesAndNestedCalls(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 50
		n          = 97
	)
	inner := New("inner", 3)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New("outer", 2+g%3)
			for range rounds {
				counts := make([]int32, n)
				e.Map(n, func(_, i int) {
					counts[i]++
					if i == 0 && g == 0 {
						var sum atomic.Int64
						inner.ForChunk(n, func(lo, hi int) { sum.Add(int64(hi - lo)) })
						if sum.Load() != n {
							t.Errorf("nested call covered %d indices, want %d", sum.Load(), n)
						}
					}
				})
				e.ForChunk(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						counts[i]++
					}
				})
				for i, c := range counts {
					if c != 2 {
						t.Errorf("goroutine %d: index %d ran %d times, want 2", g, i, c)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent engine calls did not finish: deadlock")
	}
}

// TestNestedParallelForChunk drives the sub-engines of a Split from one
// goroutine each, the layout of concurrent sessions and chip tiles:
// every sub-engine's ForChunk and Map must cover its indices exactly
// once, with ordinals inside the sub-engine's range.
func TestNestedParallelForChunk(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		subs := New("outer", workers).Split(3)
		const n = 2048
		results := make([][]int32, len(subs))
		var wg sync.WaitGroup
		for ti, sub := range subs {
			results[ti] = make([]int32, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.ForChunk(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&results[ti][i], 1)
					}
				})
				sub.Map(n, func(worker, i int) {
					if worker < 0 || worker >= sub.Workers() {
						t.Errorf("task %d: worker ordinal %d out of range", ti, worker)
					}
					atomic.AddInt32(&results[ti][i], 1)
				})
			}()
		}
		wg.Wait()
		for ti := range results {
			for i, c := range results[ti] {
				if c != 2 {
					t.Fatalf("workers=%d task=%d index=%d visited %d times, want 2", workers, ti, i, c)
				}
			}
		}
	}
}

// TestPanickingBodyLeavesEngineUsable checks that a body panicking on
// the caller withdraws its task: the panic reaches the caller, and the
// next call on the engine runs normally.
func TestPanickingBodyLeavesEngineUsable(t *testing.T) {
	e := New("t", 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not reach the caller")
			}
		}()
		e.Map(64, func(worker, i int) {
			if worker == 0 {
				panic("body")
			}
		})
	}()
	var sum atomic.Int64
	e.ForChunk(100, func(lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != 100 {
		t.Fatalf("after a panic the engine covered %d indices, want 100", sum.Load())
	}
}

// TestHelpersCarryCallerLabels checks that a helper runs a call's items
// under the caller's pprof labels, and under none once it is back in
// the pool, so CPU profiles attribute helper samples to the caller's
// run.
func TestHelpersCarryCallerLabels(t *testing.T) {
	e := New("t", 2)
	helperLabels := func() (seen bool, labels unsafe.Pointer) {
		// Items sleep so the helper joins before the caller runs out.
		e.Map(64, func(worker, _ int) {
			if worker != 0 {
				seen, labels = true, getProfLabel()
			}
			time.Sleep(50 * time.Microsecond)
		})
		return seen, labels
	}
	if pool().size == 0 {
		t.Skip("GOMAXPROCS is 1: there are no helpers")
	}
	pprof.Do(context.Background(), pprof.Labels("run_id", "r1"), func(context.Context) {
		want := getProfLabel()
		if seen, got := helperLabels(); seen && got != want {
			t.Fatal("a helper ran a labeled call without the caller's labels")
		}
	})
	if seen, got := helperLabels(); seen && got != nil {
		t.Fatal("a helper kept a previous caller's labels")
	}
}
