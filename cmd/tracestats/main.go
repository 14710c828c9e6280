// Command tracestats turns the structured JSONL event traces written by
// the -tracefile flag of cmd/lsopc and cmd/tables into human-readable
// analytics: event inventory, plan-cache and pool hit rates, a per-phase
// latency table with exact p50/p95/p99 over the raw span durations, and
// per-session convergence summaries (slope of ln(cost), best cost) with
// health verdicts. The verdicts come from replaying each session's
// iterations through the live health watchdog (obs.Watchdog, the rule
// behind lsopc -health), whether or not the run itself ran it: a fresh
// watchdog starts at the session's first iteration, at each
// level_switch and at each tile_start of a tile run, as in the live
// run. Two limits: MOSAIC_fast and PVOPC sessions replay with the
// stall and divergence checks on, which their live runs skip, and a
// trace that begins at a resume point replays from a fresh watchdog.
// Coarse-to-fine traces additionally get per-resolution-level
// convergence segments and per-grid-size corner phases
// ("corner:…@64"). Tiled runs (lsopc -tiled) get per-tile latency
// percentiles and a stitch-pass convergence table.
//
// With -check it validates a trace instead of reporting on it. It fails
// with a non-zero exit when a line is not valid JSON, an event carries
// no type, or the sink-assigned sequence numbers are not strictly
// increasing — the integrity invariants concurrent sessions rely on.
// Session-scoped events (iterations, corners, spans, health,
// level/tile/stitch, cancelled, checkpoint) must carry their run id —
// the trace field live consumers key on — and each run's iteration
// numbers must be strictly increasing, the invariant the SSE stream and
// run registry rely on. Tiled-run events carry structural invariants of
// their own: tile_start/tile_done must name a tile ordinal ≥ 1, and
// stitch_pass must name a pass ≥ 1 over ≥ 1 re-optimized tiles.
// Health events must carry one of the watchdog's reason codes.
// Cancellation events must carry their cause message, checkpoint events
// must report ≥ 1 captured state fields, and capture events their
// reason, bundle directory and ≥ 1 bundle files. Event kinds outside the
// taxonomy are counted and reported (a schema drift signal) instead of
// silently passing; -strict turns them into a failure. -require
// additionally asserts that the given event types are present, so CI
// can prove a run actually exercised the instrumented layers.
//
// Usage:
//
//	tracestats run.jsonl
//	tracestats run1.jsonl run2.jsonl           # independent reports
//	tracestats -diff before.jsonl after.jsonl  # run-vs-run comparison
//	tracestats -json run.jsonl                 # machine-readable; sessions.*.health is the replay
//	tracestats -chrome timeline.json run.jsonl # Perfetto-loadable timeline
//	tracestats -bundle flight/s1-non_finite... # inspect a postmortem bundle
//	tracestats -check -strict -require iteration,corner run.jsonl
//	lsopc -case B1 -tracefile /dev/stdout ... | tracestats -
//
// Exit status: 0 on success, 1 on a parse failure (empty trace, invalid
// JSON, type-less events) or a failed -check, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lsopc/internal/obs"
	"lsopc/internal/obs/analyze"
	"lsopc/internal/obs/recorder"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit the parsed run(s) / diff as JSON")
		diff      = flag.Bool("diff", false, "compare exactly two traces (A then B)")
		topN      = flag.Int("top", 0, "show only the top N phases by total time (0 = all)")
		chrome    = flag.String("chrome", "", "write a Chrome Trace Event timeline (Perfetto / chrome://tracing) of the trace to this file instead of reporting")
		bundle    = flag.Bool("bundle", false, "treat each argument as a flight-recorder postmortem bundle directory: validate its manifest and report its event tail")
		checkOnly = flag.Bool("check", false, "validate each trace's invariants and print its per-type event counts instead of reporting")
		strict    = flag.Bool("strict", false, "with -check: fail when the trace contains event kinds outside the known taxonomy")
		require   = flag.String("require", "", "with -check: comma-separated event types that must appear at least once")
	)
	flag.Parse()
	modes := 0
	for _, on := range []bool{*diff, *chrome != "", *bundle, *checkOnly} {
		if on {
			modes++
		}
	}
	if flag.NArg() < 1 || modes > 1 || (*diff && flag.NArg() != 2) || (*chrome != "" && flag.NArg() != 1) ||
		(!*checkOnly && (*strict || *require != "")) {
		fmt.Fprintln(os.Stderr, "usage: tracestats [-json] [-top N] <trace.jsonl | -> ...")
		fmt.Fprintln(os.Stderr, "       tracestats -diff [-json] before.jsonl after.jsonl")
		fmt.Fprintln(os.Stderr, "       tracestats -chrome timeline.json <trace.jsonl | ->")
		fmt.Fprintln(os.Stderr, "       tracestats -bundle <bundle-dir> ...")
		fmt.Fprintln(os.Stderr, "       tracestats -check [-strict] [-require types] <trace.jsonl | -> ...")
		os.Exit(2)
	}

	if *checkOnly {
		for _, path := range flag.Args() {
			if err := checkTrace(path, *strict, *require); err != nil {
				fmt.Fprintln(os.Stderr, "tracestats:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *bundle {
		for i, dir := range flag.Args() {
			if i > 0 {
				fmt.Println()
			}
			if err := inspectBundle(dir, *topN, *jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, "tracestats:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *chrome != "" {
		if err := exportChrome(flag.Arg(0), *chrome); err != nil {
			fmt.Fprintln(os.Stderr, "tracestats:", err)
			os.Exit(1)
		}
		return
	}

	runs := make([]*analyze.Run, flag.NArg())
	for i, path := range flag.Args() {
		run, err := parse(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestats:", err)
			os.Exit(1)
		}
		runs[i] = run
	}

	if *diff {
		d := analyze.Diff(runs[0], runs[1])
		if *jsonOut {
			emitJSON(d)
			return
		}
		printDiff(d)
		return
	}
	if *jsonOut {
		if len(runs) == 1 {
			emitJSON(runs[0])
		} else {
			emitJSON(runs)
		}
		return
	}
	for i, run := range runs {
		if i > 0 {
			fmt.Println()
		}
		printRun(run, *topN)
	}
}

// inspectBundle renders one flight-recorder postmortem bundle: the
// validated manifest (trigger, captured files, notes), the latest
// runtime snapshot, and the regular analytics report over the bundle's
// event tail.
func inspectBundle(dir string, topN int, jsonOut bool) error {
	man, err := recorder.Open(dir)
	if err != nil {
		return err
	}
	run, err := parse(filepath.Join(dir, recorder.EventsFile))
	if err != nil {
		return fmt.Errorf("bundle %s: %w", dir, err)
	}
	run.Label = fmt.Sprintf("bundle %s", dir)
	if jsonOut {
		emitJSON(map[string]any{"manifest": man, "run": run})
		return nil
	}
	fmt.Printf("=== bundle %s ===\n", dir)
	fmt.Printf("run %s  trigger %s  captured %s\n",
		man.RunID, man.Trigger, time.Unix(0, man.TimeNS).UTC().Format(time.RFC3339))
	if man.Tile > 0 {
		fmt.Printf("aborted tile %d (window %s nm)\n", man.Tile, man.Window)
	}
	if man.CheckpointIter > 0 {
		fmt.Printf("resumable checkpoint at iteration %d (%s)\n",
			man.CheckpointIter, recorder.CheckpointFile)
	}
	fmt.Printf("files: %v\n", man.Files)
	for _, n := range man.Notes {
		fmt.Printf("note: %s\n", n)
	}
	if st, ok := lastRuntimeSnapshot(filepath.Join(dir, recorder.RuntimeFile)); ok {
		fmt.Printf("runtime at capture: %d goroutines, heap %.1f MiB (%d objects), %d GCs\n",
			st.Goroutines, float64(st.HeapAlloc)/(1<<20), st.HeapObjects, st.GCNum)
	}
	fmt.Println()
	printRun(run, topN)
	return nil
}

// lastRuntimeSnapshot returns the final sample of a bundle's
// runtime.jsonl (the one taken at capture time).
func lastRuntimeSnapshot(path string) (obs.RuntimeStats, bool) {
	f, err := os.Open(path)
	if err != nil {
		return obs.RuntimeStats{}, false
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var last obs.RuntimeStats
	ok := false
	for {
		var st obs.RuntimeStats
		if err := dec.Decode(&st); err != nil {
			break
		}
		last, ok = st, true
	}
	return last, ok
}

// exportChrome converts one JSONL trace (path or "-" for stdin) into a
// Chrome Trace Event timeline file.
func exportChrome(inPath, outPath string) error {
	in, err := openTrace(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	skipped, err := analyze.WriteChromeTrace(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("chrome export: %w", err)
	}
	fmt.Fprintf(os.Stderr, "chrome timeline written to %s (load at ui.perfetto.dev; %d non-timeline events skipped)\n",
		outPath, skipped)
	return nil
}

// openTrace opens a trace file, or stdin for "-".
func openTrace(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// parse reads one trace (path or "-" for stdin).
func parse(path string) (*analyze.Run, error) {
	in, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	label := path
	if path == "-" {
		label = "stdin"
	}
	run, err := analyze.Parse(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	run.Label = label
	return run, nil
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "tracestats:", err)
		os.Exit(1)
	}
}

func printRun(r *analyze.Run, topN int) {
	fmt.Printf("=== %s ===\n", r.Label)
	fmt.Printf("events: %d  wall: %s\n", r.Events, fmtDur(r.WallNS))
	for _, t := range sortedKeys(r.ByType) {
		fmt.Printf("  %-12s %d\n", t, r.ByType[t])
	}
	if r.PlanCache.Total() > 0 {
		fmt.Printf("plan cache: %.1f%% hit (%d/%d)\n",
			100*r.PlanCache.Rate(), r.PlanCache.Hits, r.PlanCache.Total())
	}
	if r.Pool.Total() > 0 {
		fmt.Printf("pool:       %.1f%% hit (%d/%d leases, %d releases)\n",
			100*r.Pool.Rate(), r.Pool.Hits, r.Pool.Total(), r.PoolReleases)
	}

	if td := r.Tiled; td != nil {
		fmt.Printf("\ntiled: %d tiles, %d tile runs (%d converged)\n", td.Tiles, td.Runs, td.Converged)
		if td.Runs > 0 {
			fmt.Printf("  tile latency: mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
				fmtDur(int64(td.MeanTileNS)), fmtDur(int64(td.P50TileNS)),
				fmtDur(int64(td.P95TileNS)), fmtDur(int64(td.P99TileNS)), fmtDur(td.MaxTileNS))
		}
		for _, sp := range td.Stitch {
			verdict := "OPEN"
			if sp.Converged {
				verdict = "converged"
			}
			fmt.Printf("  stitch pass %d: %d tiles re-optimized, seam %.4f, %s (%s)\n",
				sp.Pass, sp.Tiles, sp.Seam, verdict, fmtDur(sp.DurNS))
		}
	}

	if len(r.Phases) > 0 {
		fmt.Printf("\n%-36s %7s %12s %10s %10s %10s %10s\n",
			"phase", "count", "total", "p50", "p95", "p99", "max")
		for i, p := range r.Phases {
			if topN > 0 && i >= topN {
				fmt.Printf("  ... %d more phases\n", len(r.Phases)-topN)
				break
			}
			fmt.Printf("%-36s %7d %12s %10s %10s %10s %10s\n",
				p.Name, p.Count, fmtDur(p.TotalNS),
				fmtDur(int64(p.P50NS)), fmtDur(int64(p.P95NS)),
				fmtDur(int64(p.P99NS)), fmtDur(p.MaxNS))
		}
	}

	for _, id := range r.SessionIDs() {
		s := r.Sessions[id]
		if len(s.Iterations) == 0 && len(s.Health) == 0 && !s.Run.Cancelled {
			continue
		}
		fmt.Printf("\nsession %s", id)
		if s.Run.Engine != "" {
			fmt.Printf(" [%s]", s.Run.Engine)
		}
		fmt.Println()
		c := s.Convergence
		if c.Iterations > 0 {
			fmt.Printf("  iterations: %d  cost %.6g -> %.6g (best %.6g @%d, change %+.1f%%)\n",
				c.Iterations, c.FirstCost, c.FinalCost, c.BestCost, c.BestIter,
				-100*c.ReductionFrac)
			fmt.Printf("  slope ln(cost)/iter: %+.4g\n", c.SlopeLogPerIter)
			if len(s.Levels) > 0 {
				fmt.Println("  (costs span multiple resolutions; see per-level summaries)")
			}
		}
		for _, lv := range s.Levels {
			fmt.Printf("  level %4dpx: iters %d (from %d)", lv.GridN, lv.Iterations, lv.StartIter)
			lc := lv.Convergence
			if lc.Iterations > 0 {
				fmt.Printf("  cost %.6g -> %.6g  slope %+.3g", lc.FirstCost, lc.FinalCost, lc.SlopeLogPerIter)
			}
			if lv.MeanIterNS > 0 {
				fmt.Printf("  iter p50 %s p95 %s", fmtDur(int64(lv.P50IterNS)), fmtDur(int64(lv.P95IterNS)))
			}
			if lv.InterpNS > 0 {
				fmt.Printf("  interp %s", fmtDur(lv.InterpNS))
			}
			fmt.Println()
		}
		for _, h := range s.Health {
			fmt.Printf("  health: iter %d %s (cost %g)\n", h.Iter, h.Reason, h.Cost)
		}
		if s.Run.Cancelled {
			fmt.Printf("  CANCELLED at iteration %d (%d checkpoint(s) captured)\n",
				s.Run.CancelledIter, s.Run.Checkpoints)
		}
	}
}

func printDiff(d *analyze.RunDiff) {
	fmt.Printf("=== diff: A=%s  B=%s ===\n", d.A, d.B)
	if d.WallRatio > 0 {
		fmt.Printf("wall ratio (B/A): %.3f\n", d.WallRatio)
	}
	fmt.Printf("plan cache hit: %.1f%% -> %.1f%%   pool hit: %.1f%% -> %.1f%%\n",
		100*d.APlanHitRate, 100*d.BPlanHitRate, 100*d.APoolHitRate, 100*d.BPoolHitRate)

	fmt.Printf("\n%-36s %7s %7s %10s %10s %8s\n",
		"phase", "A cnt", "B cnt", "A p50", "B p50", "p50 B/A")
	for _, p := range d.Phases {
		switch {
		case p.OnlyA:
			fmt.Printf("%-36s %7d %7s %10s %10s %8s  (only A)\n",
				p.Name, p.ACount, "-", fmtDur(int64(p.AP50NS)), "-", "-")
		case p.OnlyB:
			fmt.Printf("%-36s %7s %7d %10s %10s %8s  (only B)\n",
				p.Name, "-", p.BCount, "-", fmtDur(int64(p.BP50NS)), "-")
		default:
			fmt.Printf("%-36s %7d %7d %10s %10s %8.3f\n",
				p.Name, p.ACount, p.BCount,
				fmtDur(int64(p.AP50NS)), fmtDur(int64(p.BP50NS)), p.P50Ratio)
		}
	}

	c := d.Convergence
	fmt.Printf("\nconvergence: %d vs %d sessions, %d vs %d iterations\n",
		c.ASessions, c.BSessions, c.AIterations, c.BIterations)
	if c.ASessions > 0 && c.BSessions > 0 {
		fmt.Printf("  mean final cost %.6g -> %.6g (ratio %.3f)\n",
			c.AMeanFinalCost, c.BMeanFinalCost, c.FinalCostRatio)
	}
	if c.AUnhealthy+c.BUnhealthy > 0 {
		fmt.Printf("  health verdicts: %d vs %d\n", c.AUnhealthy, c.BUnhealthy)
	}
}

// fmtDur renders nanoseconds with duration-style units.
func fmtDur(ns int64) string {
	if ns == 0 {
		return "0"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
	return fmt.Sprintf("%dns", ns)
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
