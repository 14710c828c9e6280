package lsopc

import (
	"reflect"
	"sync"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/obs"
)

// firstShapeCut is a horizontal cut through the middle of the first
// target run at or below the middle row.
func firstShapeCut(t *testing.T, target *Field) CutLine {
	t.Helper()
	for y := target.H / 2; y < target.H; y++ {
		for x := 0; x < target.W; x++ {
			if target.At(x, y) > 0.5 {
				end := x
				for end < target.W && target.At(end, y) > 0.5 {
					end++
				}
				return CutLine{X: (x + end - 1) / 2, Y: y, Horizontal: true}
			}
		}
	}
	t.Fatal("empty target")
	return CutLine{}
}

// runLength is the length (nm) of the printed run through the cut.
func runLength(f *Field, cut CutLine, pixelNM float64) float64 {
	if f.At(cut.X, cut.Y) < 0.5 {
		return 0
	}
	n := 1
	for x := cut.X - 1; x >= 0 && f.At(x, cut.Y) > 0.5; x-- {
		n++
	}
	for x := cut.X + 1; x < f.W && f.At(x, cut.Y) > 0.5; x++ {
		n++
	}
	return float64(n) * pixelNM
}

// TestProcessWindowNominalMatchesEvaluate: the sweep runs on the same
// session path as Evaluate, so its best-focus, unit-dose CD is measured
// on the very image Evaluate prints at the nominal corner.
func TestProcessWindowNominalMatchesEvaluate(t *testing.T) {
	p, err := NewPipeline(PresetTest, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	printed := 0
	for _, spec := range Benchmarks() {
		target, err := p.Target(Benchmark(spec.ID))
		if err != nil {
			t.Fatal(err)
		}
		cut := firstShapeCut(t, target)
		res, err := p.ProcessWindow(target, cut)
		if err != nil {
			t.Fatal(err)
		}
		nom, _, _, err := p.PrintedImages(target)
		if err != nil {
			t.Fatal(err)
		}
		want := runLength(nom, cut, p.PixelNM())
		if res.TargetCD != want || res.Points[2].CDNM != want {
			t.Fatalf("%s: sweep nominal CD %g (matrix %g), Evaluate's nominal print %g",
				spec.ID, res.TargetCD, res.Points[2].CDNM, want)
		}
		if want > 0 {
			printed++
		}
	}
	if printed < 5 {
		t.Fatalf("degenerate test: only %d cuts print", printed)
	}
}

// TestProcessWindowConcurrent runs sweeps from several goroutines on one
// pipeline (each leases its own session) and checks every result against
// the serial one; make race runs it under the race detector.
func TestProcessWindowConcurrent(t *testing.T) {
	p, err := NewPipeline(PresetTest, engine.New("pw-concurrent", 2))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"B1", "B4", "B10"}
	masks := make([]*Field, len(ids))
	cuts := make([]CutLine, len(ids))
	want := make([]*ProcessWindowResult, len(ids))
	for i, id := range ids {
		if masks[i], err = p.Target(Benchmark(id)); err != nil {
			t.Fatal(err)
		}
		cuts[i] = firstShapeCut(t, masks[i])
		if want[i], err = p.ProcessWindow(masks[i], cuts[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(ids))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ids {
				i := (g + k) % len(ids)
				got, err := p.ProcessWindow(masks[i], cuts[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s sweep differs from the serial one", g, ids[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestProcessWindowTracesOneSpan: a sweep is one process_window span on
// its session's trace, the pipeline's first ("s1").
func TestProcessWindowTracesOneSpan(t *testing.T) {
	sink := NewCollectorTraceSink()
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	target, err := p.Target(Benchmark("B10"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessWindow(target, CutLine{X: 64, Y: 64, Horizontal: true}); err != nil {
		t.Fatal(err)
	}
	var spans []obs.Event
	for _, e := range sink.Events() {
		if e.Type == obs.EventSpan {
			spans = append(spans, e)
		}
	}
	if len(spans) != 1 || spans[0].Name != "process_window" || spans[0].Trace != "s1" || spans[0].DurNS <= 0 {
		t.Fatalf("spans = %+v, want one process_window span on s1", spans)
	}
}

// TestProcessWindowWarmAllocs bounds a warm sweep's heap allocations to
// the result and its axes: every field is leased, and the count does not
// grow with the grid.
func TestProcessWindowWarmAllocs(t *testing.T) {
	p, err := NewPipeline(PresetTest, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	target, err := p.Target(Benchmark("B10"))
	if err != nil {
		t.Fatal(err)
	}
	cut := CutLine{X: 64, Y: 64, Horizontal: true}
	if _, err := p.ProcessWindow(target, cut); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := p.ProcessWindow(target, cut); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm ProcessWindow: %.1f allocs/op", avg)
	if avg > 8 {
		t.Fatalf("warm ProcessWindow allocates %.1f objects/op, want ≤ 8", avg)
	}
}
