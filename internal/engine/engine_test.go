package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNewClampsWorkers(t *testing.T) {
	if New("x", 0).Workers() != 1 {
		t.Fatal("worker count must be at least 1")
	}
	if New("x", -3).Workers() != 1 {
		t.Fatal("negative worker count must clamp to 1")
	}
	if New("x", 4).Workers() != 4 {
		t.Fatal("explicit worker count not honored")
	}
}

func TestCPUAndGPUConstructors(t *testing.T) {
	c := CPU()
	if c.Workers() != 1 || c.Name() != "cpu" {
		t.Fatalf("CPU() = %v", c)
	}
	g := GPU()
	if g.Workers() != runtime.NumCPU() || g.Name() != "gpu" {
		t.Fatalf("GPU() = %v", g)
	}
	if runtime.NumCPU() > 1 && g.Workers() == 1 {
		t.Fatal("GPU engine should not be serial on multicore hosts")
	}
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		e := New("t", workers)
		const n = 1000
		counts := make([]int32, n)
		e.For(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForChunkPartition(t *testing.T) {
	e := New("t", 4)
	const n = 37
	visited := make([]int32, n)
	e.ForChunk(n, func(lo, hi int) {
		if lo >= hi || lo < 0 || hi > n {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visited[i], 1)
		}
	})
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	e := New("t", 4)
	called := false
	e.For(0, func(int) { called = true })
	e.For(-5, func(int) { called = true })
	e.ForChunk(0, func(int, int) { called = true })
	if called {
		t.Fatal("body must not run for non-positive n")
	}
}

func TestForMoreWorkersThanWork(t *testing.T) {
	e := New("t", 64)
	var total int64
	e.For(3, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 3 {
		t.Fatalf("sum = %d, want 3", total)
	}
}

func TestMapWorkerOrdinalsInRange(t *testing.T) {
	e := New("t", 4)
	const n = 128
	var bad int32
	seen := make([]int32, n)
	e.Map(n, func(worker, i int) {
		if worker < 0 || worker >= e.Workers() {
			atomic.AddInt32(&bad, 1)
		}
		atomic.AddInt32(&seen[i], 1)
	})
	if bad != 0 {
		t.Fatal("worker ordinal out of range")
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestMapSerialUsesWorkerZero(t *testing.T) {
	e := CPU()
	e.Map(10, func(worker, i int) {
		if worker != 0 {
			t.Fatalf("serial engine used worker %d", worker)
		}
	})
}

func TestEnginesComputeSameResult(t *testing.T) {
	// The CPU and GPU engines must produce identical results for a
	// deterministic per-element computation.
	const n = 4096
	a := make([]float64, n)
	b := make([]float64, n)
	CPU().For(n, func(i int) { a[i] = float64(i)*1.5 + 2 })
	GPU().For(n, func(i int) { b[i] = float64(i)*1.5 + 2 })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("engines disagree at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSplitDistributesWorkers(t *testing.T) {
	cases := []struct {
		workers, n int
		want       []int
	}{
		{8, 3, []int{3, 3, 2}},
		{6, 3, []int{2, 2, 2}},
		{1, 3, []int{1, 1, 1}}, // serial engine: every sub-engine stays serial
		{2, 3, []int{1, 1, 1}}, // min one worker each, never zero
		{7, 2, []int{4, 3}},
		{5, 1, []int{5}},
	}
	for _, c := range cases {
		subs := New("e", c.workers).Split(c.n)
		if len(subs) != len(c.want) {
			t.Fatalf("Split(%d) of %d workers: got %d sub-engines", c.n, c.workers, len(subs))
		}
		for i, s := range subs {
			if s.Workers() != c.want[i] {
				t.Errorf("workers=%d n=%d: sub %d has %d workers, want %d",
					c.workers, c.n, i, s.Workers(), c.want[i])
			}
		}
	}
}

func TestSplitNames(t *testing.T) {
	subs := New("gpu", 4).Split(2)
	if subs[0].Name() != "gpu/0" || subs[1].Name() != "gpu/1" {
		t.Fatalf("sub-engine names = %q, %q", subs[0].Name(), subs[1].Name())
	}
}

func TestSplitClampsN(t *testing.T) {
	subs := New("e", 4).Split(0)
	if len(subs) != 1 || subs[0].Workers() != 4 {
		t.Fatalf("Split(0) = %v", subs)
	}
}

func TestString(t *testing.T) {
	if got := New("cpu", 1).String(); got != "engine(cpu, 1 workers)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSplitMorePartsThanWorkersStillExecutes(t *testing.T) {
	// Oversubscribed partition: every sub-engine must still run its work
	// to completion, serially, and cover every index exactly once.
	subs := New("e", 2).Split(5)
	if len(subs) != 5 {
		t.Fatalf("Split(5) produced %d sub-engines", len(subs))
	}
	for i, sub := range subs {
		if sub.Workers() != 1 {
			t.Fatalf("sub %d has %d workers, want serial", i, sub.Workers())
		}
		const n = 100
		seen := make([]int, n)
		sub.For(n, func(j int) { seen[j]++ })
		sub.ForChunk(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				seen[j]++
			}
		})
		sub.Map(n, func(worker, j int) {
			if worker != 0 {
				t.Errorf("sub %d: serial Map worker ordinal %d", i, worker)
			}
			seen[j]++
		})
		for j, c := range seen {
			if c != 3 {
				t.Fatalf("sub %d index %d visited %d times, want 3", i, j, c)
			}
		}
	}
}

func TestSplitOfSerialEngine(t *testing.T) {
	// Splitting one worker must not deadlock or lose work: every
	// sub-engine is the degenerate serial engine.
	subs := New("solo", 1).Split(3)
	total := 0
	for _, sub := range subs {
		if sub.Workers() != 1 {
			t.Fatalf("serial split produced %d workers", sub.Workers())
		}
		sub.ForChunk(10, func(lo, hi int) { total += hi - lo })
	}
	if total != 30 {
		t.Fatalf("covered %d indices, want 30", total)
	}
}

func TestZeroSizeWork(t *testing.T) {
	// Zero-size parts must be complete no-ops on every primitive and
	// every engine shape — the session layer hands sub-engines jobs whose
	// per-part ranges can be empty.
	for _, e := range []*Engine{New("e1", 1), New("e4", 4)} {
		e.For(0, func(i int) { t.Error("For(0) invoked body") })
		e.ForChunk(0, func(lo, hi int) {
			if lo != hi {
				t.Errorf("ForChunk(0) got range [%d,%d)", lo, hi)
			}
		})
		e.Map(0, func(worker, i int) { t.Error("Map(0) invoked body") })
		for _, sub := range e.Split(8) {
			sub.For(0, func(i int) { t.Error("sub For(0) invoked body") })
		}
	}
}
