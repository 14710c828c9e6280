package tiling

import (
	"context"

	"errors"
	"math"
	"sync/atomic"
	"testing"

	"lsopc/internal/core"
	"lsopc/internal/engine"
	"lsopc/internal/geom"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/rt"
	"lsopc/internal/solve"
)

func TestDecomposeGeometry(t *testing.T) {
	g, err := Decompose(3072, 3072, 2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 2 || g.NY != 2 || len(g.Tiles) != 4 {
		t.Fatalf("grid %dx%d (%d tiles), want 2x2", g.NX, g.NY, len(g.Tiles))
	}
	if g.CoreNM != 2048-2*256 {
		t.Fatalf("core %d, want %d", g.CoreNM, 2048-2*256)
	}
	coreArea := 0
	for i, tl := range g.Tiles {
		if tl.Window.W() != 2048 || tl.Window.H() != 2048 {
			t.Fatalf("tile %d window %+v not 2048 square", i, tl.Window)
		}
		if tl.Window.X0 < 0 || tl.Window.Y0 < 0 || tl.Window.X1 > 3072 || tl.Window.Y1 > 3072 {
			t.Fatalf("tile %d window %+v outside chip", i, tl.Window)
		}
		// The core must sit at least a halo away from every window edge
		// that is not flush with the chip edge.
		if tl.Window.X0 > 0 && tl.Core.X0-tl.Window.X0 < 256 {
			t.Fatalf("tile %d core %+v closer than halo to window %+v", i, tl.Core, tl.Window)
		}
		if tl.Window.X1 < 3072 && tl.Window.X1-tl.Core.X1 < 256 {
			t.Fatalf("tile %d core %+v closer than halo to window %+v", i, tl.Core, tl.Window)
		}
		coreArea += tl.Core.Area()
		for j := 0; j < i; j++ {
			if tl.Core.Intersects(g.Tiles[j].Core) {
				t.Fatalf("cores %d and %d overlap", i, j)
			}
		}
	}
	if coreArea != 3072*3072 {
		t.Fatalf("cores cover %d nm², want %d (must partition the chip)", coreArea, 3072*3072)
	}
}

func TestDecomposeSingleTile(t *testing.T) {
	g, err := Decompose(2048, 2048, 2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tiles) != 1 {
		t.Fatalf("%d tiles for chip == window, want 1", len(g.Tiles))
	}
	tl := g.Tiles[0]
	if tl.Core != (geom.Rect{X0: 0, Y0: 0, X1: 2048, Y1: 2048}) || tl.Window != tl.Core {
		t.Fatalf("single tile core %+v window %+v", tl.Core, tl.Window)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(4096, 4096, 2048, 1024); err == nil {
		t.Fatal("2·halo == window accepted")
	}
	if _, err := Decompose(1024, 4096, 2048, 128); err == nil {
		t.Fatal("chip narrower than window accepted")
	}
	if _, err := Decompose(4096, 4096, 2048, -1); err == nil {
		t.Fatal("negative halo accepted")
	}
}

// testBank builds a small 64-px @ 16 nm bank (1024 nm window).
func testBank(t *testing.T, eng *engine.Engine) (*rt.Bank, litho.Config) {
	t.Helper()
	cfg := litho.DefaultConfig(64, 16)
	cfg.Optics.Kernels = 4
	res, err := rt.BankFor(cfg.Optics, cfg.DefocusNM, eng)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

// testChip is a 1024×1536 nm chip: 1×3 tiles at a 1024 nm window with a
// 256 nm halo (core 512 nm), with features in every tile's core and one
// bar straddling a core seam.
func testChip() *geom.Layout {
	return &geom.Layout{
		Name: "chip-1x3", W: 1024, H: 1536,
		Rects: []geom.Rect{
			geom.NewRect(256, 200, 768, 328),   // tile 0 core
			geom.NewRect(256, 700, 768, 760),   // tile 1 core
			geom.NewRect(256, 960, 768, 1088),  // straddles the core seam at y=1024
			geom.NewRect(100, 1200, 228, 1400), // tile 2 core
		},
	}
}

func tileOpts(iters int) Options {
	co := core.DefaultOptions()
	co.MaxIter = iters
	return Options{
		HaloNM:       256,
		Core:         co,
		StitchPasses: 1,
		StitchIters:  2,
	}
}

func TestTiledOptimizeEndToEnd(t *testing.T) {
	eng := engine.New("tiling-test", 2)
	res, cfg := testBank(t, eng)
	chip := testChip()
	sink := &obs.CollectorSink{}
	opts := tileOpts(4)
	opts.Workers = 2
	result, err := Optimize(context.Background(), res, cfg, eng, chip, opts, sink, "job1")
	if err != nil {
		t.Fatal(err)
	}
	if result.Grid.NX != 1 || result.Grid.NY != 3 {
		t.Fatalf("grid %dx%d, want 1x3", result.Grid.NX, result.Grid.NY)
	}
	cw, ch := 1024/16, 1536/16
	if result.Mask.W != cw || result.Mask.H != ch {
		t.Fatalf("chip mask %dx%d, want %dx%d", result.Mask.W, result.Mask.H, cw, ch)
	}
	if result.Psi.W != cw || result.Psi.H != ch {
		t.Fatalf("chip psi %dx%d, want %dx%d", result.Psi.W, result.Psi.H, cw, ch)
	}
	for i, v := range result.Psi.Data {
		if math.IsNaN(v) {
			t.Fatalf("NaN in blended psi at %d", i)
		}
	}
	// The mask must print something near each feature: crude sanity that
	// every tile contributed (sum of mask pixels in each third).
	third := ch / 3
	for band := 0; band < 3; band++ {
		sum := 0.0
		for y := band * third; y < (band+1)*third; y++ {
			for x := 0; x < cw; x++ {
				sum += result.Mask.At(x, y)
			}
		}
		if sum == 0 {
			t.Fatalf("tile band %d printed nothing", band)
		}
	}

	// Trace structure: every non-empty tile emits tile_start+tile_done
	// per pass it ran, and the stitch pass the seams need at the 0.01
	// tolerance emits stitch_pass.
	var starts, dones, stitches int
	seenTile := map[int]bool{}
	for _, e := range sink.Events() {
		switch e.Type {
		case obs.EventTileStart:
			starts++
			if e.Tile < 1 || e.Tile > 3 {
				t.Fatalf("tile_start tile=%d out of range", e.Tile)
			}
			seenTile[e.Tile] = true
			if e.Trace != "job1" {
				t.Fatalf("tile_start trace %q", e.Trace)
			}
		case obs.EventTileDone:
			dones++
			if e.DurNS <= 0 {
				t.Fatalf("tile_done without duration: %+v", e)
			}
		case obs.EventStitchPass:
			stitches++
			if e.Pass < 1 || e.N < 1 {
				t.Fatalf("stitch_pass malformed: %+v", e)
			}
		}
	}
	if starts == 0 || starts != dones {
		t.Fatalf("tile_start=%d tile_done=%d", starts, dones)
	}
	if len(seenTile) != 3 {
		t.Fatalf("tiles seen %v, want all 3", seenTile)
	}
	if result.Passes != stitches || stitches == 0 {
		t.Fatalf("result.Passes=%d and %d stitch_pass events, want the same count above 0", result.Passes, stitches)
	}
	if result.Workers != 2 {
		t.Fatalf("workers = %d, want 2", result.Workers)
	}
}

func TestTiledEmptyTileSkipped(t *testing.T) {
	eng := engine.CPU()
	res, cfg := testBank(t, eng)
	// One feature above y=256: only tile 0's window (y ∈ [0,1024)) sees
	// it; tiles 1 and 2 (windows from y=256 and y=512) stay empty.
	chip := &geom.Layout{
		Name: "sparse", W: 1024, H: 1536,
		Rects: []geom.Rect{geom.NewRect(256, 100, 768, 200)},
	}
	opts := tileOpts(2)
	opts.StitchPasses = -1 // no stitching
	result, err := Optimize(context.Background(), res, cfg, eng, chip, opts, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for _, st := range result.Tiles {
		if st.Empty {
			empties++
			if st.Iterations != 0 {
				t.Fatalf("empty tile %d ran %d iterations", st.Index, st.Iterations)
			}
		}
	}
	if empties == 0 {
		t.Fatal("no tile marked empty")
	}
	// Empty regions must print nothing.
	sum := 0.0
	for y := 1024 / 16; y < 1536/16; y++ {
		for x := 0; x < 1024/16; x++ {
			sum += result.Mask.At(x, y)
		}
	}
	if sum != 0 {
		t.Fatalf("empty tile region printed %g pixels", sum)
	}
}

// TestTiledNaNPoisonedTileAborts proves the watchdog fails the whole
// tiled run with a typed *TileAbortError when one tile's cost goes
// non-finite.
func TestTiledNaNPoisonedTileAborts(t *testing.T) {
	eng := engine.CPU()
	res, cfg := testBank(t, eng)
	chip := testChip()
	poisoned := 1
	opts := tileOpts(3)
	opts.Core.Health = true
	opts.PoisonTile = poisoned + 1 // 1-based
	_, err := Optimize(context.Background(), res, cfg, eng, chip, opts, nil, "")
	if err == nil {
		t.Fatal("poisoned run succeeded")
	}
	var tae *TileAbortError
	if !errors.As(err, &tae) {
		t.Fatalf("error %T %v, want *TileAbortError", err, err)
	}
	if tae.Tile != poisoned {
		t.Fatalf("aborted tile %d, want %d", tae.Tile, poisoned)
	}
	if tae.Reason != obs.HealthNonFiniteCost {
		t.Fatalf("abort reason %q, want %q", tae.Reason, obs.HealthNonFiniteCost)
	}
}

// cancelOnIterationSink cancels the run's context on the first
// optimizer iteration event — the deterministic trigger for the
// concurrent-cancellation test. Emit runs on multiple worker
// goroutines; CancelFunc is safe for concurrent use.
type cancelOnIterationSink struct {
	cancel context.CancelFunc
	iters  atomic.Int64
}

func (s *cancelOnIterationSink) Emit(e obs.Event) {
	if e.Type == obs.EventIteration {
		s.iters.Add(1)
		s.cancel()
	}
}

// TestTiledCancelStopsWorkersPromptly cancels a concurrent tiled run
// mid-flight (run under -race in `make race`): the error must unwrap to
// context.Canceled, in-flight tiles must stop at the next iteration
// boundary instead of burning their budget, and the shared bank must
// come out clean enough to serve a fresh run.
func TestTiledCancelStopsWorkersPromptly(t *testing.T) {
	eng := engine.New("tiling-cancel", 2)
	res, cfg := testBank(t, eng)
	chip := testChip()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnIterationSink{cancel: cancel}

	co := core.DefaultOptions()
	co.MaxIter = 2000 // would run for minutes uncancelled…
	co.Tolerance = 0  // …because the velocity stop is disabled
	opts := Options{
		HaloNM:       256,
		Core:         co,
		StitchPasses: 2,
		Workers:      2,
	}
	result, err := Optimize(ctx, res, cfg, eng, chip, opts, sink, "cancel-me")
	if err == nil {
		t.Fatal("cancelled tiled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("error %T %v, want the tile's *solve.Cancelled", err, err)
	}
	if result != nil {
		t.Fatal("cancelled run returned a result")
	}
	// Promptness: the cancellation fired on the very first iteration
	// event, so the two in-flight tiles stop at their next boundary and
	// the queued tile never starts — nowhere near the 3×2000 budget.
	if n := sink.iters.Load(); n > 100 {
		t.Fatalf("%d iteration events after cancellation, want a prompt stop", n)
	}

	// The bank and engine must come out clean: a fresh run on the same
	// resources succeeds (workers drained, no leaked or poisoned
	// sessions).
	res2, err := Optimize(context.Background(), res, cfg, eng, chip, tileOpts(2), nil, "")
	if err != nil {
		t.Fatalf("follow-up run on the same bank failed: %v", err)
	}
	if res2.Mask == nil {
		t.Fatal("follow-up run returned no mask")
	}
}

func TestDefaultHaloNM(t *testing.T) {
	eng := engine.CPU()
	res, cfg := testBank(t, eng)
	halo := DefaultHaloNM(res, eng)
	window := cfg.Optics.GridSize * int(cfg.Optics.PixelNM)
	if halo < int(cfg.Optics.PixelNM) || halo > window/4 {
		t.Fatalf("derived halo %d nm outside [pitch, window/4=%d]", halo, window/4)
	}
	if halo%int(cfg.Optics.PixelNM) != 0 {
		t.Fatalf("halo %d not a pixel multiple", halo)
	}
}
