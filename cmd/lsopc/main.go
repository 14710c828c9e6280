// Command lsopc optimizes one mask with the level-set ILT method (or a
// baseline) and reports the ICCAD 2013 contest metrics.
//
// Usage:
//
//	lsopc -case B4 -preset fast
//	lsopc -glp design.glp -preset fast -method MOSAIC_exact
//	lsopc -case B1 -iters 30 -pvb-weight 0.8 -out mask.pgm -ascii
//	lsopc -case B4 -tracefile run.jsonl          # structured event trace
//	lsopc -case B4 -serve 127.0.0.1:6060         # live /runs + SSE, /metrics + pprof
//	lsopc -glp chip.glp -tiled -tile-workers 4   # full-chip tiled run
//	lsopc -glp chip.glp -tiled -halo 320 -stitch-passes 3 -out chip.pgm
//	lsopc -case B4 -checkpoint run.ckpt          # Ctrl-C writes a resumable checkpoint
//	lsopc -case B4 -resume run.ckpt              # continue it bit-identically
//	lsopc -case B4 -health -flight-dir flight    # postmortem bundle on a watchdog abort
//	lsopc -glp chip.glp -tiled -health -poison-tile 1 -flight-dir flight  # forced abort drill
//
// Ctrl-C (SIGINT) cancels a run gracefully: the optimizer stops at the
// next iteration boundary, trace sinks are flushed, with -checkpoint
// the resumable state is written out, and the process exits with
// status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"lsopc"
	"lsopc/internal/render"
)

// cliConfig carries every parsed flag.
type cliConfig struct {
	caseID     string
	glpPath    string
	preset     string
	method     string
	iters      int
	pvbWeight  float64
	serial     bool
	outPath    string
	outGLP     string
	ascii      bool
	trace      bool
	tracePath  string
	serveAddr  string
	health     bool
	multires   int
	checkpoint string
	resume     string

	tiled        bool
	halo         int
	tileWorkers  int
	stitchPasses int
	stitchIters  int

	flightDir  string
	poisonTile int
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.caseID, "case", "B4", "benchmark id (B1…B10); ignored when -glp is set")
	flag.StringVar(&cfg.glpPath, "glp", "", "optimize a GLP layout file instead of a benchmark")
	flag.StringVar(&cfg.preset, "preset", "fast", "simulation preset: test|fast|paper")
	flag.StringVar(&cfg.method, "method", "level-set", "optimizer: level-set|MOSAIC_fast|MOSAIC_exact|robust|PVOPC")
	flag.IntVar(&cfg.iters, "iters", 0, "override the method's iteration budget (0 = default)")
	flag.Float64Var(&cfg.pvbWeight, "pvb-weight", -1, "override w_pvb (negative = default)")
	flag.BoolVar(&cfg.serial, "serial", false, "run on the serial (CPU) engine instead of the parallel one")
	flag.StringVar(&cfg.outPath, "out", "", "write the optimized mask as a PGM file")
	flag.StringVar(&cfg.outGLP, "out-glp", "", "write the optimized mask geometry as a GLP file")
	flag.BoolVar(&cfg.ascii, "ascii", false, "print an ASCII preview of target vs printed image")
	flag.BoolVar(&cfg.trace, "trace", false, "print the per-iteration cost trace")
	flag.StringVar(&cfg.tracePath, "tracefile", "", "write a structured JSONL event trace (iterations, corner timings, plan-cache and pool events) to this file")
	flag.StringVar(&cfg.serveAddr, "serve", "", "serve live run status on this address for the duration of the run: /runs, /runs/{id}, /runs/{id}/events (SSE), /healthz, /metrics, /debug/vars and /debug/pprof (e.g. :6060)")
	flag.BoolVar(&cfg.health, "health", false, "stop the run on its first unhealthy iteration: a NaN/Inf cost or gradient, 8 iterations in a row improving the cost by less than 1e-9 relative, or a cost above 10x the minimum of the previous 10 (MOSAIC_fast and PVOPC: NaN/Inf only); tracestats replays the same rule on any trace")
	flag.IntVar(&cfg.multires, "multires", 1, "coarse-to-fine start factor (power of two): begin on a grid downsampled by this factor, halving each level; 1 = single resolution")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write a resumable checkpoint to this file when the run is cancelled (Ctrl-C)")
	flag.StringVar(&cfg.resume, "resume", "", "resume a cancelled run from this checkpoint file (options must match the original run)")

	flag.BoolVar(&cfg.tiled, "tiled", false, "full-chip tiled optimization: decompose the layout into overlapping tiles (the preset's grid is the tile window), optimize them concurrently and stitch the seams (level-set only)")
	flag.IntVar(&cfg.halo, "halo", 0, "tile overlap halo in nm (0 = derive from the SOCS kernel energy support)")
	flag.IntVar(&cfg.tileWorkers, "tile-workers", 0, "concurrent tile sessions (0 = one per engine worker)")
	flag.IntVar(&cfg.stitchPasses, "stitch-passes", 0, "max halo-stitching consistency passes (0 = default 2, negative = none)")
	flag.IntVar(&cfg.stitchIters, "stitch-iters", 0, "per-tile iteration budget inside a stitch pass (0 = max(4, iters/4))")

	flag.StringVar(&cfg.flightDir, "flight-dir", "", "enable the flight recorder: keep per-run event tails and write a postmortem bundle (event tail, goroutine/heap/CPU profiles, run snapshot, resumable checkpoint) under this directory when a run aborts or is cancelled")
	flag.IntVar(&cfg.poisonTile, "poison-tile", 0, "fault injection for testing the abort path: NaN-poison the Nth tile's target (1-based) so the health watchdog aborts it (requires -tiled and -health)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lsopc:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // conventional SIGINT exit status
		}
		os.Exit(1)
	}
}

// validateFlags rejects flag combinations before any resources are
// built: negative counts, and -tiled paired with options the tiled
// path ignores or cannot honour.
func validateFlags(cfg cliConfig) error {
	switch {
	case cfg.iters < 0:
		return fmt.Errorf("-iters must be ≥ 0, got %d", cfg.iters)
	case cfg.halo < 0:
		return fmt.Errorf("-halo must be ≥ 0 nm, got %d", cfg.halo)
	case cfg.tileWorkers < 0:
		return fmt.Errorf("-tile-workers must be ≥ 0, got %d", cfg.tileWorkers)
	case cfg.stitchIters < 0:
		return fmt.Errorf("-stitch-iters must be ≥ 0, got %d", cfg.stitchIters)
	case cfg.multires < 0:
		return fmt.Errorf("-multires must be ≥ 0, got %d", cfg.multires)
	case cfg.poisonTile < 0:
		return fmt.Errorf("-poison-tile must be ≥ 0, got %d", cfg.poisonTile)
	}
	if cfg.poisonTile != 0 && !cfg.health {
		return fmt.Errorf("-poison-tile requires -health: only the watchdog turns the injected NaN into an abort")
	}
	if cfg.tiled {
		switch {
		case cfg.method != "level-set":
			return fmt.Errorf("-tiled supports only the level-set method (got %q)", cfg.method)
		case cfg.ascii:
			return fmt.Errorf("-tiled ignores -ascii: the preview renders one simulation window, not a chip")
		case cfg.trace:
			return fmt.Errorf("-tiled ignores -trace: per-tile histories are not printed (use -tracefile)")
		case cfg.checkpoint != "" || cfg.resume != "":
			return fmt.Errorf("-tiled does not support -checkpoint/-resume: tiles restart from the blended consensus, re-run the pass instead")
		}
	} else {
		switch {
		case cfg.halo != 0:
			return fmt.Errorf("-halo requires -tiled")
		case cfg.tileWorkers != 0:
			return fmt.Errorf("-tile-workers requires -tiled")
		case cfg.stitchPasses != 0:
			return fmt.Errorf("-stitch-passes requires -tiled")
		case cfg.stitchIters != 0:
			return fmt.Errorf("-stitch-iters requires -tiled")
		case cfg.poisonTile != 0:
			return fmt.Errorf("-poison-tile requires -tiled")
		}
	}
	if cfg.checkpoint != "" && cfg.checkpoint == cfg.resume {
		return fmt.Errorf("-checkpoint and -resume name the same file %q; pick a fresh checkpoint path", cfg.checkpoint)
	}
	return nil
}

func run(cfg cliConfig) error {
	if err := validateFlags(cfg); err != nil {
		return err
	}
	preset, err := lsopc.ParsePreset(cfg.preset)
	if err != nil {
		return err
	}
	// SIGINT cancels the run at the next iteration boundary; a second
	// SIGINT (after stop() restores default handling) kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := lsopc.GPUEngine()
	if cfg.serial {
		eng = lsopc.CPUEngine()
	}
	// Trace sinks: the JSONL file (-tracefile) and the live telemetry
	// feed (-serve) compose through one tee installed both as the
	// runtime sink and as the pipeline sink.
	var sinks []lsopc.TraceSink
	var flight *lsopc.FlightRecorder
	if cfg.serveAddr != "" {
		live, err := lsopc.ServeLive(cfg.serveAddr, cfg.flightDir)
		if err != nil {
			return fmt.Errorf("live endpoint: %w", err)
		}
		// The live server stops gracefully on every exit path — normal
		// completion, errors, and the SIGINT cancel path all reach the
		// deferred call; active SSE streams are closed and any late
		// serve error is surfaced.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := live.Shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "lsopc: live endpoint shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "live status on http://%s/runs (SSE at /runs/{id}/events, metrics at /metrics)\n", live.Addr())
		sinks = append(sinks, live.Sink())
		flight = live.Recorder() // Sink() above already feeds its rings
	}
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return err
		}
		sink := lsopc.NewJSONLTraceSink(f)
		sinks = append(sinks, sink)
		// The deferred flush runs on every exit path — a cancelled run's
		// trace (including its cancelled/checkpoint events) still lands
		// on disk. It runs after the tee's SetRuntimeTrace(nil) below
		// (LIFO), so no events race the flush+close.
		defer func() {
			if err := lsopc.FlushTrace(sink); err != nil {
				fmt.Fprintln(os.Stderr, "lsopc: trace flush:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "event trace written to %s\n", cfg.tracePath)
		}()
	}
	if cfg.flightDir != "" && flight == nil {
		// Standalone flight recorder (no -serve): its capture events go
		// to whatever other sinks are attached, and the recorder itself
		// joins the tee so its per-run rings see every event.
		rec := lsopc.NewFlightRecorder(lsopc.FlightRecorderConfig{
			Dir:  cfg.flightDir,
			Sink: lsopc.TeeTraceSink(sinks...),
		})
		defer rec.Close()
		sinks = append(sinks, rec)
		flight = rec
	}
	if flight != nil {
		fmt.Fprintf(os.Stderr, "flight recorder armed: postmortem bundles under %s\n", cfg.flightDir)
	}
	var popts []lsopc.PipelineOption
	if flight != nil {
		popts = append(popts, lsopc.WithFlightRecorder(flight))
	}
	if len(sinks) > 0 {
		// Install as the runtime sink before the pipeline is built so
		// plan-cache and pool events from bank/session construction land
		// in the same stream as the optimizer's iteration events.
		tee := lsopc.TeeTraceSink(sinks...)
		lsopc.SetRuntimeTrace(tee)
		defer lsopc.SetRuntimeTrace(nil)
		popts = append(popts, lsopc.WithTraceSink(tee))
	}
	pipe, err := lsopc.NewPipeline(preset, eng, popts...)
	if err != nil {
		return err
	}
	defer pipe.Release()

	layout, err := loadLayout(cfg.caseID, cfg.glpPath)
	if err != nil {
		return err
	}
	fmt.Printf("layout %s: %d shapes, pattern area %d nm²\n", layout.Name, layout.ShapeCount(), layout.Area())
	fmt.Printf("preset %s: %d px @ %g nm/px, engine %s\n", preset, pipe.GridSize(), pipe.PixelNM(), eng.Name())

	if cfg.tiled {
		return runTiled(ctx, pipe, layout, cfg)
	}

	var from *lsopc.Checkpoint
	if cfg.resume != "" {
		if from, err = loadCheckpoint(cfg.resume); err != nil {
			return err
		}
	}
	var result *lsopc.RunResult
	switch cfg.method {
	case "level-set":
		opts := lsopc.DefaultLevelSetOptions()
		if cfg.iters > 0 {
			opts.MaxIter = cfg.iters
		}
		if cfg.pvbWeight >= 0 {
			opts.PVBWeight = cfg.pvbWeight
		}
		opts.MultiResFactor = cfg.multires
		opts.Health = cfg.health
		result, err = pipe.OptimizeLevelSetContext(ctx, layout, opts, from)
	case "MOSAIC_fast", "MOSAIC_exact", "robust", "PVOPC":
		opts := lsopc.DefaultBaselineOptions(parseVariant(cfg.method))
		if cfg.iters > 0 {
			opts.MaxIter = cfg.iters
		}
		if cfg.pvbWeight >= 0 {
			opts.PVBWeight = cfg.pvbWeight
		}
		opts.MultiResFactor = cfg.multires
		opts.Health = cfg.health
		result, err = pipe.OptimizeBaselineContext(ctx, layout, opts, from)
	default:
		return fmt.Errorf("unknown method %q", cfg.method)
	}
	if err != nil {
		return handleCancelled(err, cfg.checkpoint)
	}

	fmt.Printf("method %s finished in %v\n", result.Method, result.Elapsed.Round(1e6))
	if result.Aborted {
		fmt.Printf("health watchdog ABORTED the run at iteration %d: %s\n",
			result.Iterations, result.AbortReason)
	}
	fmt.Println(result.Report)

	if cfg.trace {
		fmt.Println("iter  cost_total  cost_nominal  cost_pvb  max|v|  dt  lambda")
		for _, h := range result.History {
			fmt.Printf("%4d  %10.4f  %12.4f  %8.4f  %6.3g  %.3g  %.3f\n",
				h.Iter, h.Cost, h.CostNominal, h.CostPVB, h.MaxVelocity, h.TimeStep, h.LambdaPRP)
		}
	}
	if cfg.ascii {
		printed, _, _, err := pipe.PrintedImages(result.Mask)
		if err != nil {
			return err
		}
		target, err := pipe.Target(layout)
		if err != nil {
			return err
		}
		fmt.Println("printed image with target contour ('+': contour printed, 'x': contour missing, '#': printed):")
		fmt.Print(render.ContourOverlayASCII(target, printed, 100))
	}
	if cfg.outPath != "" {
		if err := render.SavePGM(cfg.outPath, result.Mask, 0, 1); err != nil {
			return err
		}
		fmt.Printf("mask written to %s\n", cfg.outPath)
	}
	if cfg.outGLP != "" {
		maskLayout := lsopc.MaskToLayout(layout.Name+"_mask", result.Mask, int(pipe.PixelNM()))
		if err := lsopc.SaveGLP(cfg.outGLP, maskLayout); err != nil {
			return err
		}
		fmt.Printf("mask geometry (%d rects) written to %s\n", len(maskLayout.Rects), cfg.outGLP)
	}
	return nil
}

// loadCheckpoint reads a -resume checkpoint file.
func loadCheckpoint(path string) (*lsopc.Checkpoint, error) {
	cp, err := lsopc.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	fmt.Printf("resuming %s from iteration %d (checkpoint %s)\n", cp.Method, cp.Offset+cp.Iter, path)
	return cp, nil
}

// handleCancelled is the partial-result exit path: a cancelled run
// reports where it stopped and, with -checkpoint, persists the
// resumable state before the (non-nil) error propagates to main.
func handleCancelled(err error, checkpointPath string) error {
	var cerr *lsopc.CancelledError
	if !errors.As(err, &cerr) {
		return err
	}
	fmt.Fprintf(os.Stderr, "lsopc: %v\n", cerr)
	if checkpointPath != "" {
		if werr := lsopc.SaveCheckpoint(checkpointPath, cerr.Checkpoint); werr != nil {
			return fmt.Errorf("cancelled, and writing the checkpoint failed: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s — resume with -resume %s (same options)\n",
			checkpointPath, checkpointPath)
	} else {
		fmt.Fprintln(os.Stderr, "no -checkpoint path was given; the partial state is discarded")
	}
	return err
}

// runTiled is the -tiled mode: a full-chip tiled optimization whose
// tile window is the pipeline's simulation grid. The contest report is
// skipped — its checkers evaluate a single simulation window, not a
// chip — in favour of the per-tile and seam-convergence summary.
func runTiled(ctx context.Context, pipe *lsopc.Pipeline, layout *lsopc.Layout, cfg cliConfig) error {
	opts := lsopc.DefaultLevelSetOptions()
	if cfg.iters > 0 {
		opts.MaxIter = cfg.iters
	}
	if cfg.pvbWeight >= 0 {
		opts.PVBWeight = cfg.pvbWeight
	}
	opts.MultiResFactor = cfg.multires
	opts.Health = cfg.health

	result, err := pipe.OptimizeTiledContext(ctx, layout, lsopc.TileOptions{
		HaloNM:       cfg.halo,
		Workers:      cfg.tileWorkers,
		Core:         opts,
		StitchPasses: cfg.stitchPasses,
		StitchIters:  cfg.stitchIters,
		PoisonTile:   cfg.poisonTile,
	})
	if err != nil {
		var terr *lsopc.TileAbortError
		if rec := pipe.FlightRecorder(); rec != nil && errors.As(err, &terr) {
			if dir, ok := rec.Captured(terr.Trace); ok {
				fmt.Fprintf(os.Stderr, "postmortem bundle written to %s (inspect with tracestats -bundle)\n", dir)
			}
		}
		return err
	}
	g := result.Grid
	fmt.Printf("tiled: %dx%d tiles (window %d nm, halo %d nm, core %d nm), %d workers\n",
		g.NX, g.NY, g.WindowNM, g.HaloNM, g.CoreNM, result.Workers)
	for _, st := range result.Tiles {
		switch {
		case st.Empty:
			fmt.Printf("  tile %2d (%d,%d): empty window, skipped\n", st.Index+1, st.IX, st.IY)
		default:
			verdict := "budget"
			if st.Converged {
				verdict = "converged"
			}
			fmt.Printf("  tile %2d (%d,%d): %3d iters, %s, %v\n",
				st.Index+1, st.IX, st.IY, st.Iterations, verdict, st.Dur.Round(1e6))
		}
	}
	seamVerdict := "NOT converged"
	if result.SeamConverged {
		seamVerdict = "converged"
	}
	fmt.Printf("seams: worst disagreement %.4f after %d stitch passes (%s)\n",
		result.Seam, result.Passes, seamVerdict)
	fmt.Printf("tiled run finished in %v (chip mask %dx%d px)\n",
		result.Elapsed.Round(1e6), result.Mask.W, result.Mask.H)

	if cfg.outPath != "" {
		if err := render.SavePGM(cfg.outPath, result.Mask, 0, 1); err != nil {
			return err
		}
		fmt.Printf("mask written to %s\n", cfg.outPath)
	}
	if cfg.outGLP != "" {
		maskLayout := lsopc.MaskToLayout(layout.Name+"_mask", result.Mask, int(pipe.PixelNM()))
		if err := lsopc.SaveGLP(cfg.outGLP, maskLayout); err != nil {
			return err
		}
		fmt.Printf("mask geometry (%d rects) written to %s\n", len(maskLayout.Rects), cfg.outGLP)
	}
	return nil
}

func loadLayout(caseID, glpPath string) (*lsopc.Layout, error) {
	if glpPath == "" {
		return lsopc.BenchmarkByID(caseID)
	}
	return lsopc.LoadGLP(glpPath)
}

func parseVariant(s string) lsopc.BaselineVariant {
	switch s {
	case "MOSAIC_fast":
		return lsopc.MosaicFast
	case "MOSAIC_exact":
		return lsopc.MosaicExact
	case "robust":
		return lsopc.RobustOPC
	default:
		return lsopc.PVOPC
	}
}
