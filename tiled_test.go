package lsopc

import (
	"sync"
	"testing"
	"time"

	"lsopc/internal/engine"
)

// TestTiledMatchesMonolithic is the seam-quality acceptance gate: a
// 2048 nm benchmark clip small enough to optimize monolithically
// (PresetTest, one 128-px window) is also optimized tiled — a 64-px
// (1024 nm) tile window with a 256 nm halo gives a 4×4 decomposition —
// and the stitched chip mask must land in the same EPE/PVB quality
// class when evaluated with the monolithic pipeline's contest checkers.
// EPE/PVB at this scale are noisy discrete counts, so the bounds mirror
// the per-case multires gates (schedule_test.go).
func TestTiledMatchesMonolithic(t *testing.T) {
	mono, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Release()
	tiledPipe, err := NewCustomPipeline(64, 16, 4, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer tiledPipe.Release()

	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 20

	want, err := mono.OptimizeLevelSet(layout, opts)
	if err != nil {
		t.Fatal(err)
	}

	tstart := time.Now()
	tiled, err := tiledPipe.OptimizeTiled(layout, TileOptions{
		HaloNM:       256,
		Core:         opts,
		StitchPasses: 2,
		StitchIters:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tiled.Grid.Tiles); got != 16 {
		t.Fatalf("decomposition has %d tiles, want 16 (4x4)", got)
	}
	if tiled.Mask.W != mono.GridSize() || tiled.Mask.H != mono.GridSize() {
		t.Fatalf("tiled chip mask %dx%d, want %d", tiled.Mask.W, tiled.Mask.H, mono.GridSize())
	}
	got, err := mono.Evaluate(layout, tiled.Mask, time.Since(tstart))
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("mono:  EPE %d  PVB %.0f", want.Report.EPEViolations, want.Report.PVBandNM2)
	t.Logf("tiled: EPE %d  PVB %.0f  (seam %.4f after %d stitch passes, converged=%v)",
		got.EPEViolations, got.PVBandNM2, tiled.Seam, tiled.Passes, tiled.SeamConverged)
	if g, w := got.EPEViolations, want.Report.EPEViolations; g > w+10 {
		t.Errorf("tiled EPE violations %d vs monolithic %d", g, w)
	}
	if g, w := got.PVBandNM2, want.Report.PVBandNM2; g > 2*w+2600 {
		t.Errorf("tiled PV band %.0f vs monolithic %.0f", g, w)
	}
}

// TestTiledConcurrentSessionsStress is the shared-bank safety gate for
// tiled fan-out (run under -race by make race): several tiled jobs run
// concurrently on one pipeline — each spawning tile sessions that lease
// and release pooled scratch — while other goroutines lease/close
// sessions and Release() the pipeline mid-flight.
func TestTiledConcurrentSessionsStress(t *testing.T) {
	eng := engine.New("stress", 4)
	sink := NewCollectorTraceSink()
	p, err := NewCustomPipeline(64, 16, 4, eng, WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	chipLayout := stressChip()

	opts := DefaultLevelSetOptions()
	opts.MaxIter = 2
	tileOpts := TileOptions{
		HaloNM:       256,
		Workers:      4,
		Core:         opts,
		StitchPasses: 1,
		StitchIters:  1,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Tiled jobs: dozens of tile sessions constructed/released.
	for j := 0; j < 3; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.OptimizeTiled(chipLayout, tileOpts); err != nil {
				errs <- err
			}
		}()
	}
	// Session churn against the same bank and pool.
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, err := p.lease()
				if err != nil {
					errs <- err
					return
				}
				s.done()
			}
		}()
	}
	// Concurrent pipeline releases (drain free list + flush sink).
	for j := 0; j < 3; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// stressChip returns a small 1×3-tile chip layout.
func stressChip() *Layout {
	return &Layout{
		Name: "stress-chip", W: 1024, H: 1536,
		Rects: []Rect{
			{X0: 256, Y0: 200, X1: 768, Y1: 328},
			{X0: 256, Y0: 960, X1: 768, Y1: 1088},
			{X0: 100, Y0: 1200, X1: 228, Y1: 1400},
		},
	}
}
