package lsopc

import (
	"runtime"
	"sync"
	"testing"
)

// reportsMatch compares everything deterministic in a report (RuntimeSec
// is wall-clock and legitimately differs between runs).
func reportsMatch(a, b Report) bool {
	return a.EPEViolations == b.EPEViolations &&
		a.PVBandNM2 == b.PVBandNM2 &&
		a.ShapeViolations == b.ShapeViolations
}

func masksEqual(t *testing.T, id string, a, b *Field) {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("%s: mask shapes differ: %dx%d vs %dx%d", id, a.W, a.H, b.W, b.H)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: masks diverge at pixel %d", id, i)
		}
	}
}

// TestConcurrentOptimizationMatchesSerial is the concurrency acceptance
// gate: all ten ICCAD benchmarks optimized concurrently through ONE
// pipeline must be bit-identical to the serial loop — same masks, same
// metrics, same iteration traces. Sessions lease private scratch from
// the shared bank, and the engine layer guarantees worker-count
// independence, so scheduling must not leak into results. Run under
// `go test -race .` (make race) this is also the data-race gate for the
// whole session runtime.
func TestConcurrentOptimizationMatchesSerial(t *testing.T) {
	p, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 3

	specs := Benchmarks()
	layoutByID := make(map[string]*Layout, len(specs))
	serial := make(map[string]*RunResult, len(specs))
	for _, s := range specs {
		l := Benchmark(s.ID)
		layoutByID[s.ID] = l
		run, err := p.OptimizeLevelSet(l, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", s.ID, err)
		}
		serial[s.ID] = run
	}

	// All ten at once through the same pipeline handle.
	concurrent := make(map[string]*RunResult, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range specs {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			run, err := p.OptimizeLevelSet(layoutByID[id], opts)
			if err != nil {
				t.Errorf("%s concurrent: %v", id, err)
				return
			}
			mu.Lock()
			concurrent[id] = run
			mu.Unlock()
		}(s.ID)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for id, want := range serial {
		got := concurrent[id]
		masksEqual(t, id, want.Mask, got.Mask)
		if !reportsMatch(want.Report, got.Report) {
			t.Fatalf("%s: reports differ: %+v vs %+v", id, want.Report, got.Report)
		}
		if len(want.History) != len(got.History) {
			t.Fatalf("%s: history lengths differ", id)
		}
		for i := range want.History {
			if want.History[i] != got.History[i] {
				t.Fatalf("%s: iteration %d trace differs", id, i)
			}
		}
	}
}

// TestSessionsPartitionMatchesSerial runs one pipeline per sub-engine of
// an Engine.Split partition of the workers, concurrently, and checks
// results stay bit-identical to the shared-handle path.
func TestSessionsPartitionMatchesSerial(t *testing.T) {
	p, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 2

	ids := []string{"B1", "B4", "B7", "B10"}
	want := make(map[string]*RunResult, len(ids))
	for _, id := range ids {
		run, err := p.OptimizeLevelSet(Benchmark(id), opts)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = run
	}

	subs := p.Engine().Split(len(ids))
	pipes := make([]*Pipeline, len(subs))
	for i, sub := range subs {
		if pipes[i], err = NewPipeline(PresetTest, sub); err != nil {
			t.Fatal(err)
		}
		defer pipes[i].Release()
	}
	got := make([]*RunResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			run, err := pipes[i].OptimizeLevelSet(Benchmark(id), opts)
			if err != nil {
				t.Errorf("%s on sub-engine %d: %v", id, i, err)
				return
			}
			got[i] = run
		}(i, id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		masksEqual(t, id, want[id].Mask, got[i].Mask)
		if !reportsMatch(want[id].Report, got[i].Report) {
			t.Fatalf("%s: reports differ", id)
		}
	}
}

// TestSessionReuse checks the pipeline's free list: a closed session is
// handed back warm, and reuse does not perturb results.
func TestSessionReuse(t *testing.T) {
	p, err := NewPipeline(PresetTest, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.lease()
	if err != nil {
		t.Fatal(err)
	}
	s1.done()
	s2, err := p.lease()
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatal("idle session was not reused")
	}
	l := Benchmark("B3")
	mask, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s2.evaluate(l, mask, mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.done()
	r2, err := p.Evaluate(l, mask, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsMatch(r1, r2) {
		t.Fatalf("session reuse changed the report: %+v vs %+v", r1, r2)
	}
	p.Release()
}

// TestTargetIsPrivateCopy guards the ownership contract: Target hands
// each caller its own mutable raster, so one caller scribbling on its
// target cannot corrupt concurrent jobs on the same layout.
func TestTargetIsPrivateCopy(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := Benchmark("B2")
	a, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	sum := a.Sum()
	a.Fill(7)
	b, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sum() != sum {
		t.Fatal("mutating a returned target corrupted a later call's target")
	}
}

// TestTargetRetainsNoLayouts holds Target and Evaluate to a per-call
// raster: a long-lived pipeline that rasterises and scores many freshly
// built layouts keeps neither them nor their rasters alive.
func TestTargetRetainsNoLayouts(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	score := func() {
		l := Benchmark("B4")
		target, err := p.Target(l)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Evaluate(l, target, 0); err != nil {
			t.Fatal(err)
		}
	}
	score()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const layouts = 64
	for i := 0; i < layouts; i++ {
		score()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	raster := int64(8 * p.GridSize() * p.GridSize())
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 16*raster {
		t.Fatalf("live heap grew %d KiB over %d fresh layouts (a raster is %d KiB)",
			grew>>10, layouts, raster>>10)
	}
}
