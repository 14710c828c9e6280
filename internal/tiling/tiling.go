// Package tiling scales mask optimization beyond a single simulation
// window: a full-chip layout is decomposed into a grid of overlapping
// tiles (a core region each tile owns plus an optical-influence halo
// sized from the SOCS kernel support), the tiles are optimized
// concurrently on litho sessions sharing one immutable resource bank,
// and a halo-stitching consistency pass blends ψ across tile seams and
// re-optimizes disagreeing tiles from the blended consensus until the
// seams converge.
//
// The tile window always equals the resource bank's simulation grid
// (GridSize·PixelNM nm), so every tile reuses the bank's kernel banks
// and FFT plans unchanged; the spectral wraparound a periodic FFT
// introduces at window edges reaches at most the optical-influence
// radius inward, which is exactly the halo band the blending weights
// suppress — the core region each tile contributes is unaffected by
// construction (DESIGN.md §11).
package tiling

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lsopc/internal/core"
	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/geom"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/rt"
	"lsopc/internal/solve"
)

// Tile is one window of the decomposition: Core is the chip region this
// tile owns (cores partition the chip exactly), Window the simulation
// extent including halos. Both are in nm, half-open, chip coordinates.
type Tile struct {
	Index  int
	IX, IY int
	Window geom.Rect
	Core   geom.Rect
}

// Grid is a full tile decomposition of a chip.
type Grid struct {
	NX, NY   int
	ChipW    int // nm
	ChipH    int // nm
	WindowNM int
	HaloNM   int
	CoreNM   int
	Tiles    []Tile
}

// Decompose splits a chipW×chipH nm canvas into tiles whose windows are
// exactly windowNM square. Cores are windowNM−2·haloNM and partition
// the chip; windows extend each core by haloNM per side, clamped into
// the chip (so edge windows keep their full extent by shifting inward,
// and their cores sit deeper than haloNM from the window edge). A chip
// no larger than the window yields a single tile.
func Decompose(chipW, chipH, windowNM, haloNM int) (*Grid, error) {
	if windowNM <= 0 {
		return nil, fmt.Errorf("tiling: window %d nm must be positive", windowNM)
	}
	if haloNM < 0 || 2*haloNM >= windowNM {
		return nil, fmt.Errorf("tiling: halo %d nm must satisfy 0 ≤ 2·halo < window %d nm", haloNM, windowNM)
	}
	if chipW < windowNM || chipH < windowNM {
		return nil, fmt.Errorf("tiling: chip %dx%d nm smaller than the %d nm tile window", chipW, chipH, windowNM)
	}
	coreNM := windowNM - 2*haloNM
	nx, ny := ceilDiv(chipW, coreNM), ceilDiv(chipH, coreNM)
	if chipW == windowNM {
		nx = 1
	}
	if chipH == windowNM {
		ny = 1
	}
	g := &Grid{
		NX: nx, NY: ny,
		ChipW: chipW, ChipH: chipH,
		WindowNM: windowNM, HaloNM: haloNM, CoreNM: coreNM,
		Tiles: make([]Tile, 0, nx*ny),
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			core := geom.Rect{
				X0: ix * coreNM, Y0: iy * coreNM,
				X1: min((ix+1)*coreNM, chipW), Y1: min((iy+1)*coreNM, chipH),
			}
			if nx == 1 {
				core.X0, core.X1 = 0, chipW
			}
			if ny == 1 {
				core.Y0, core.Y1 = 0, chipH
			}
			wx := min(max(core.X0-haloNM, 0), chipW-windowNM)
			wy := min(max(core.Y0-haloNM, 0), chipH-windowNM)
			g.Tiles = append(g.Tiles, Tile{
				Index: len(g.Tiles), IX: ix, IY: iy,
				Window: geom.Rect{X0: wx, Y0: wy, X1: wx + windowNM, Y1: wy + windowNM},
				Core:   core,
			})
		}
	}
	return g, nil
}

// seamTolerance is the stitching convergence criterion: the worst mask
// disagreement fraction over all tile-pair overlap regions must fall to
// or below it.
const seamTolerance = 0.01

// Options configures a tiled optimization.
type Options struct {
	// HaloNM is the optical-influence overlap per tile side. 0 derives
	// it from the resource bank's SOCS kernel energy support
	// (DefaultHaloNM), which is the physically meaningful choice.
	HaloNM int
	// Workers is the number of concurrent tile sessions; the engine's
	// workers are partitioned across them (Engine.Split). 0 uses one
	// worker per engine worker, capped at the tile count.
	Workers int
	// Core is the per-tile optimizer schedule for the initial
	// independent sweep (iteration budget, multi-res schedule, …). Its
	// Health runs the watchdog in every tile run: a tile whose
	// optimizer aborts fails the whole tiled run with a *TileAbortError
	// and cancels the remaining tiles.
	Core core.Options
	// StitchPasses bounds the halo-stitching consistency passes after
	// the initial sweep; 0 defaults to 2, negative disables stitching.
	StitchPasses int
	// StitchIters is the per-tile iteration budget inside a stitch
	// pass; 0 defaults to max(4, Core.MaxIter/4).
	StitchIters int
	// PoisonTile, when > 0, NaN-poisons one pixel of that tile's
	// rasterised target (1-based ordinal) before optimization — fault
	// injection for exercising the watchdog-abort and postmortem-capture
	// path from the CLI and CI without a genuinely broken layout.
	PoisonTile int
}

// TileStat is the per-tile outcome of a tiled run.
type TileStat struct {
	Tile
	Empty      bool // no chip geometry intersected the window
	Iterations int  // total across the sweep and stitch passes
	Converged  bool // last optimizer run stopped on tolerance
	Dur        time.Duration
}

// Result is a completed tiled optimization.
type Result struct {
	Mask  *grid.Field // chip-resolution binary mask
	Psi   *grid.Field // blended chip-resolution level-set function
	Grid  *Grid
	Tiles []TileStat
	// Passes is the number of stitch passes run; Seam the final worst
	// overlap disagreement fraction; SeamConverged whether it is at or
	// below the tolerance.
	Passes        int
	Seam          float64
	SeamConverged bool
	Workers       int
	Elapsed       time.Duration
}

// TileAbortError reports a tile whose optimizer the health watchdog
// aborted; it fails the whole tiled run. It carries enough context for
// a postmortem: the tile's run id and chip window, and the solver
// checkpoint at the aborted boundary (re-rasterize the window's clip to
// rebuild the tile target and resume for bisection).
type TileAbortError struct {
	Tile   int    // tile index (0-based)
	Reason string // obs.Health* reason code
	// Trace is the tile run's id ("<job>.t<n>").
	Trace string
	// Window is the tile's simulation window in chip nm coordinates.
	Window geom.Rect
	// Checkpoint is the aborted tile optimizer's resumable state (nil
	// when the abort predates checkpoint capture).
	Checkpoint *solve.Checkpoint
}

// Error implements error.
func (e *TileAbortError) Error() string {
	return fmt.Sprintf("tiling: tile %d aborted: %s", e.Tile, e.Reason)
}

// DefaultHaloNM derives the halo from the bank's SOCS kernel support:
// the radius containing 99.9% of the combined spatial kernel's energy
// (the worse of the nominal and defocus banks), in nm, rounded up to a
// pixel multiple and clamped to [1 px, window/4]. Beyond this radius a
// feature has no meaningful optical influence, so tiles overlapping by
// it see every neighbour feature that can affect their core.
func DefaultHaloNM(res *rt.Bank, eng *engine.Engine) int {
	n := res.GridSize()
	pitch := int(res.Optics().PixelNM)
	if pitch < 1 {
		pitch = 1
	}
	r := kernelEnergyRadius(res.Nominal().Combined.Dense(n), eng)
	if dr := kernelEnergyRadius(res.Defocus().Combined.Dense(n), eng); dr > r {
		r = dr
	}
	halo := r * pitch
	if maxHalo := (n * pitch) / 4; halo > maxHalo {
		halo = maxHalo
	}
	if halo < pitch {
		halo = pitch
	}
	return halo
}

// kernelEnergyRadius inverse-transforms a dense spectral kernel and
// returns the integer pixel radius containing 99.9% of its spatial
// energy (|h|², wraparound distances from the origin).
func kernelEnergyRadius(spec *grid.CField, eng *engine.Engine) int {
	fft.NewBatchPlan2D(spec.W, spec.H, eng).BatchInverse([]*grid.CField{spec})
	n := spec.W
	byRadius := make([]float64, n)
	total := 0.0
	for y := 0; y < spec.H; y++ {
		dy := y
		if dy > n-dy {
			dy = n - dy
		}
		for x := 0; x < n; x++ {
			dx := x
			if dx > n-dx {
				dx = n - dx
			}
			v := spec.Data[y*n+x]
			e := real(v)*real(v) + imag(v)*imag(v)
			r := int(math.Ceil(math.Hypot(float64(dx), float64(dy))))
			if r >= len(byRadius) {
				r = len(byRadius) - 1
			}
			byRadius[r] += e
			total += e
		}
	}
	if total <= 0 {
		return 1
	}
	cum := 0.0
	for r, e := range byRadius {
		cum += e
		if cum >= 0.999*total {
			return max(r, 1)
		}
	}
	return n / 2
}

// Optimize runs the full tiled optimization of chip on the given
// resource bank (whose grid defines the tile window), engine and
// configuration. See the package comment for the algorithm. A non-nil
// sink receives the run's tile_start/tile_done/stitch_pass events under
// trace, and each tile run's optimizer stream under "<trace>.t<n>".
//
// Cancelling ctx stops the run promptly: in-flight tiles observe the
// cancellation at their next iteration boundary, queued tiles and
// pending stitch passes are skipped, and the error unwraps to the
// context's error. A cancelled tiled run is not checkpointable — tiles
// restart from the blended consensus anyway, so a resume re-runs the
// interrupted pass.
func Optimize(ctx context.Context, res *rt.Bank, cfg litho.Config, eng *engine.Engine, chip *geom.Layout, opts Options, sink obs.Sink, trace string) (*Result, error) {
	start := time.Now()
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	pitch := int(cfg.Optics.PixelNM)
	if float64(pitch) != cfg.Optics.PixelNM || pitch <= 0 {
		return nil, fmt.Errorf("tiling: non-integer pixel pitch %g nm", cfg.Optics.PixelNM)
	}
	if chip.W%pitch != 0 || chip.H%pitch != 0 {
		return nil, fmt.Errorf("tiling: pitch %d nm does not divide chip %dx%d nm", pitch, chip.W, chip.H)
	}
	if eng == nil {
		eng = engine.CPU()
	}
	windowNM := cfg.Optics.GridSize * pitch
	halo := opts.HaloNM
	if halo == 0 {
		halo = DefaultHaloNM(res, eng)
	}
	if halo%pitch != 0 {
		halo += pitch - halo%pitch
	}
	g, err := Decompose(chip.W, chip.H, windowNM, halo)
	if err != nil {
		return nil, err
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = eng.Workers()
	}
	workers = min(max(workers, 1), len(g.Tiles))
	stitchPasses := opts.StitchPasses
	if stitchPasses == 0 {
		stitchPasses = 2
	}
	stitchIters := opts.StitchIters
	if stitchIters == 0 {
		stitchIters = max(4, opts.Core.MaxIter/4)
	}

	r := &runner{
		res: res, cfg: cfg, pitch: pitch,
		chip: chip, grid: g,
		opts: opts, sink: sink, trace: trace, stitchIters: stitchIters,
		eng:   eng,
		subs:  eng.Split(workers),
		psis:  make([]*grid.Field, len(g.Tiles)),
		stats: make([]TileStat, len(g.Tiles)),
	}
	for i := range r.stats {
		r.stats[i].Tile = g.Tiles[i]
	}

	// Initial independent sweep over every tile.
	all := make([]int, len(g.Tiles))
	for i := range all {
		all[i] = i
	}
	if err := r.runPass(ctx, 0, all, nil); err != nil {
		return nil, err
	}

	// Halo-stitching consistency passes: blend ψ across seams, re-run
	// tiles that still disagree with a neighbour from the blended
	// consensus, until the worst seam disagreement converges.
	seam, dirty := r.seamDisagreement()
	passes := 0
	for p := 1; p <= stitchPasses && seam > seamTolerance && len(dirty) > 0; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passStart := time.Now()
		// The tiles copy their windows out of the blend, so it goes
		// back to the pool once the pass is done.
		chipPsi := res.Pool().Field(g.ChipW/pitch, g.ChipH/pitch)
		r.blend(chipPsi)
		err := r.runPass(ctx, p, dirty, chipPsi)
		res.Pool().PutField(chipPsi)
		if err != nil {
			return nil, err
		}
		seam, dirty = r.seamDisagreement()
		passes = p
		if sink != nil {
			sink.Emit(obs.Event{
				Type: obs.EventStitchPass, Trace: trace,
				Pass: p, N: len(r.lastRun), Seam: seam, Hit: seam <= seamTolerance,
				DurNS: time.Since(passStart).Nanoseconds(),
			})
		}
	}

	chipPsi := grid.NewField(g.ChipW/pitch, g.ChipH/pitch)
	r.blend(chipPsi)
	mask := grid.NewField(chipPsi.W, chipPsi.H)
	levelset.MaskFromPsi(mask, chipPsi)
	return &Result{
		Mask: mask, Psi: chipPsi, Grid: g,
		Tiles:  r.stats,
		Passes: passes, Seam: seam, SeamConverged: seam <= seamTolerance,
		Workers: workers,
		Elapsed: time.Since(start),
	}, nil
}

// runner holds the shared state of one tiled run.
type runner struct {
	res   *rt.Bank
	cfg   litho.Config
	pitch int
	chip  *geom.Layout
	grid  *Grid
	opts  Options
	sink  obs.Sink
	trace string
	eng   *engine.Engine   // the run's engine: blend sweeps its rows
	subs  []*engine.Engine // one per tile worker

	stitchIters int
	lastRun     []int

	mu      sync.Mutex
	psis    []*grid.Field // per-tile window ψ (nil for empty tiles)
	stats   []TileStat
	aborted atomic.Bool
	failure error // first tile abort or hard error
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.failure == nil {
		r.failure = err
	}
	r.mu.Unlock()
	r.aborted.Store(true)
}

// runPass optimizes the listed tiles concurrently across the worker
// sub-engines. pass 0 is the independent sweep; later passes re-start
// each tile from its window slice of the blended chip ψ with the stitch
// iteration budget.
func (r *runner) runPass(ctx context.Context, pass int, tiles []int, chipPsi *grid.Field) error {
	r.lastRun = tiles
	idx := make(chan int)
	var wg sync.WaitGroup
	nw := min(len(r.subs), len(tiles))
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(sub *engine.Engine) {
			defer wg.Done()
			// Label the worker goroutine with the owning job so CPU
			// profiles attribute tile work to the tiled run; per-tile
			// run_id/phase labels are layered on inside runTile. Engine
			// helpers run a call under its caller's labels.
			pprof.Do(ctx, pprof.Labels("job", r.trace), func(ctx context.Context) {
				sim, err := litho.NewSession(r.res, r.cfg, sub)
				if err != nil {
					r.fail(err)
					for range idx {
					}
					return
				}
				defer sim.Release()
				for ti := range idx {
					// Drain the queue even once failed or cancelled so the
					// feeder below never blocks.
					if r.aborted.Load() {
						continue
					}
					if err := ctx.Err(); err != nil {
						r.fail(err)
						continue
					}
					if err := r.runTileLabeled(ctx, sim, ti, pass, chipPsi); err != nil {
						r.fail(err)
					}
				}
			})
		}(r.subs[w])
	}
	for _, ti := range tiles {
		idx <- ti
	}
	close(idx)
	wg.Wait()
	r.mu.Lock()
	err := r.failure
	r.mu.Unlock()
	return err
}

// runTileLabeled runs one tile under a `tile` pprof label (1-based
// ordinal, matching the trace events).
func (r *runner) runTileLabeled(ctx context.Context, sim *litho.Simulator, ti, pass int, chipPsi *grid.Field) (err error) {
	pprof.Do(ctx, pprof.Labels("tile", strconv.Itoa(ti+1)), func(ctx context.Context) {
		err = r.runTile(ctx, sim, ti, pass, chipPsi)
	})
	return err
}

// runTile optimizes one tile window on the worker's simulator.
func (r *runner) runTile(ctx context.Context, sim *litho.Simulator, ti, pass int, chipPsi *grid.Field) error {
	t := r.grid.Tiles[ti]
	clip := r.chip.Clip(t.Window)
	wpx := r.grid.WindowNM / r.pitch
	if clip.ShapeCount() == 0 {
		// Nothing to print in this window: ψ is uniformly exterior.
		psi := grid.NewField(wpx, wpx)
		psi.Fill(float64(wpx))
		r.mu.Lock()
		r.psis[ti] = psi
		r.stats[ti].Empty = true
		r.mu.Unlock()
		return nil
	}
	target, err := geom.Rasterize(clip, r.pitch)
	if err != nil {
		return err
	}
	if r.opts.PoisonTile == ti+1 {
		target.Data[len(target.Data)/2] = math.NaN()
	}

	topts := r.opts.Core
	tileTrace := obs.TileRunID(r.trace, ti+1)
	if pass > 0 {
		topts.InitialPsi = chipPsi.SubRegion(t.Window.X0/r.pitch, t.Window.Y0/r.pitch, wpx, wpx)
		topts.MaxIter = r.stitchIters
		topts.MultiResFactor = 0
		topts.IterOffset = r.opts.Core.MaxIter + (pass-1)*r.stitchIters
	}
	sim.SetSink(r.sink, tileTrace)
	if r.sink != nil {
		r.sink.Emit(obs.Event{
			Type: obs.EventTileStart, Trace: r.trace,
			Tile: ti + 1, Pass: pass,
			Name: fmt.Sprintf("core[%d,%d)x[%d,%d)", t.Core.X0, t.Core.X1, t.Core.Y0, t.Core.Y1),
		})
	}
	start := time.Now()
	res, err := core.Run(ctx, sim, target, topts, nil)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	if r.sink != nil {
		r.sink.Emit(obs.Event{
			Type: obs.EventTileDone, Trace: r.trace,
			Tile: ti + 1, Pass: pass,
			Iter: res.Iterations, Hit: res.Converged,
			DurNS: dur.Nanoseconds(),
		})
	}
	r.mu.Lock()
	r.psis[ti] = res.State
	r.stats[ti].Iterations += res.Iterations
	r.stats[ti].Converged = res.Converged
	r.stats[ti].Dur += dur
	r.mu.Unlock()
	if res.Aborted {
		return &TileAbortError{
			Tile: ti, Reason: res.AbortReason,
			Trace:      tileTrace,
			Window:     t.Window,
			Checkpoint: res.AbortCheckpoint,
		}
	}
	return nil
}

// blend accumulates every tile's window ψ into num, a zeroed
// chip-resolution field, under separable ramp weights: weight rises
// linearly from the window edge over the halo width, is 1 throughout
// the core, and window sides flush with the chip edge (clamped windows)
// weigh 1 since no other tile covers them. The accumulated sum is
// normalised by the weight sum, so single-coverage pixels pass through
// exactly and seam pixels cross-fade between neighbours. The rows run
// on the run's engine; each pixel adds its tiles in index order. A
// row's weight sum is only needed for that row, so it lives in one
// row of scratch per engine chunk.
func (r *runner) blend(num *grid.Field) {
	wpx := r.grid.WindowNM / r.pitch
	ramps := windowRamps(wpx, r.grid.HaloNM/r.pitch)
	r.eng.ForChunk(num.H, func(lo, hi int) {
		drow := make([]float64, num.W)
		for cy := lo; cy < hi; cy++ {
			nrow := num.Row(cy)
			clear(drow)
			for ti, psi := range r.psis {
				t := r.grid.Tiles[ti]
				y0 := t.Window.Y0 / r.pitch
				if psi == nil || cy < y0 || cy >= y0+wpx {
					continue
				}
				y, x0 := cy-y0, t.Window.X0/r.pitch
				wy := ramps[b2i(t.Window.Y0 > 0)][b2i(t.Window.Y1 < r.chip.H)][y]
				wx := ramps[b2i(t.Window.X0 > 0)][b2i(t.Window.X1 < r.chip.W)]
				srow, n, d := psi.Row(y), nrow[x0:x0+wpx], drow[x0:x0+wpx]
				for x, v := range srow {
					w := wy * wx[x]
					n[x] += w * v
					d[x] += w
				}
			}
			for x, d := range drow {
				if d > 0 {
					nrow[x] /= d
				}
			}
		}
	})
}

// windowRamps returns blend's per-axis weights for a window of wpx
// pixels: ramps[lo][hi][d] is the weight at distance d from the window's
// low edge when that edge is open (lo = 1, another tile covers it) or
// flush with the chip (0), and likewise the high edge. An open edge
// ramps up over the halo: min(1, (d+1)/halo).
func windowRamps(wpx, haloPx int) (ramps [2][2][]float64) {
	for lo := range 2 {
		for hi := range 2 {
			r := make([]float64, wpx)
			for d := range r {
				w := 1.0
				if lo == 1 && haloPx > 0 {
					w = math.Min(w, float64(d+1)/float64(haloPx))
				}
				if hi == 1 && haloPx > 0 {
					w = math.Min(w, float64(wpx-d)/float64(haloPx))
				}
				r[d] = w
			}
			ramps[lo][hi] = r
		}
	}
	return ramps
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// seamDisagreement returns the worst mask disagreement fraction over
// every overlapping tile pair's shared window region, plus the indices
// of non-empty tiles involved in a pair above seamTolerance (the tiles
// a stitch pass re-optimizes). A pixel is inside a window where its ψ
// is < 0; a tile that has not run is outside everywhere.
func (r *runner) seamDisagreement() (float64, []int) {
	worst := 0.0
	dirtySet := map[int]bool{}
	wpx := r.grid.WindowNM / r.pitch
	outside := make([]float64, wpx)
	for x := range outside {
		outside[x] = 1
	}
	// window returns tile ti's ψ over the chip pixels [px0, px1) of row
	// cy.
	window := func(ti, cy, px0, px1 int) []float64 {
		w := r.grid.Tiles[ti].Window
		x0, y0 := w.X0/r.pitch, w.Y0/r.pitch
		if r.psis[ti] == nil {
			return outside[px0-x0 : px1-x0]
		}
		return r.psis[ti].Row(cy - y0)[px0-x0 : px1-x0]
	}
	for i := 0; i < len(r.grid.Tiles); i++ {
		for j := i + 1; j < len(r.grid.Tiles); j++ {
			ov := r.grid.Tiles[i].Window.Intersect(r.grid.Tiles[j].Window)
			if ov.Empty() {
				continue
			}
			px0, py0 := ov.X0/r.pitch, ov.Y0/r.pitch
			px1, py1 := ov.X1/r.pitch, ov.Y1/r.pitch
			area := (px1 - px0) * (py1 - py0)
			if area == 0 {
				continue
			}
			cnt := 0
			for cy := py0; cy < py1; cy++ {
				a, b := window(i, cy, px0, px1), window(j, cy, px0, px1)
				for x, v := range a {
					if (v < 0) != (b[x] < 0) {
						cnt++
					}
				}
			}
			frac := float64(cnt) / float64(area)
			if frac > worst {
				worst = frac
			}
			if frac > seamTolerance {
				if !r.stats[i].Empty {
					dirtySet[i] = true
				}
				if !r.stats[j].Empty {
					dirtySet[j] = true
				}
			}
		}
	}
	dirty := make([]int, 0, len(dirtySet))
	for ti := range dirtySet {
		dirty = append(dirty, ti)
	}
	slices.Sort(dirty)
	return worst, dirty
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
