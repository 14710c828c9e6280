package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"lsopc"
	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

// ladderCalls are the single calls the ladder times on B4, each
// isolating one layer.
var ladderCalls = []string{
	"BatchForwardBandedCols", "BatchInverseBanded", "MaskSpectrumInto", "Forward",
	"ForwardAndGradient", "SignedDistance", "Reinitialize", "ReinitializeFMM",
	"Evaluate", "ProcessWindow",
}

// perLayer are the traced pass's metrics, per job unless the unit says
// otherwise. README.md lists which end-to-end metric each should move.
var perLayer = append([]metricDef{
	{"fft.banded_cols.calls", "count/job"},
	{"fft.banded_cols.busy_s", "s/job"},
	{"fft.inverse_banded.calls", "count/job"},
	{"fft.inverse_banded.busy_s", "s/job"},
	{"fft.plan_cache.hit_ratio", "ratio"},
	{"litho.forward_gradient.calls", "count/job"},
	{"litho.forward_gradient.busy_s", "s/job"},
	{"litho.forward_gradient.ms_p50", "ms"},
	{"litho.forward.calls", "count/job"},
	{"litho.forward.busy_s", "s/job"},
	{"litho.fft_share", "ratio"},
	{"solve.iters", "count/job"},
	{"solve.iter_ms_p50", "ms"},
	{"solve.iter_ms_p90", "ms"},
	{"core.self_ms_per_iter", "ms"},
	{"core.corner_overlap", "ratio"},
	{"multires.level_switch_ms", "ms/job"},
	{"multires.coarse_iter_ms_p50", "ms"},
	{"rt.pool.leases", "count/job"},
	{"rt.pool.misses", "count/job"},
	{"rt.pool.reuse_ratio", "ratio"},
	{"engine.utilization", "ratio"},
	{"tiling.tiles", "count/job"},
	{"tiling.nonempty_tiles", "count/job"},
	{"tiling.tile_runs", "count/job"},
	{"tiling.useful_ratio", "ratio"},
	{"tiling.tile_ms_p50", "ms"},
	{"tiling.tile_ms_p90", "ms"},
	{"tiling.stitch_passes", "count/job"},
	{"tiling.stitch_s", "s/job"},
	{"tiling.outside_tiles_s", "s/job"},
	{"lsopc.target_ms", "ms"},
	{"lsopc.optimize_s_p50", "s"},
	{"lsopc.evaluate_ms_p50", "ms"},
	{"procwin.sweep_ms_p50", "ms"},
	{"procwin.sweep_ms_p80", "ms"},
	{"go.alloc_mb", "MB/job"},
	{"go.mallocs", "count/job"},
	{"go.gc_cycles", "count/job"},
	{"go.gc_pause_ms", "ms/job"},
	{"obs.trace_overhead", "ratio"},
	{"obs.events_per_job", "count/job"},
}, ladderDefs()...)

func ladderDefs() []metricDef {
	var defs []metricDef
	for _, c := range ladderCalls {
		defs = append(defs, metricDef{"ladder." + c + "_ms", "ms"}, metricDef{"ladder." + c + "_allocs", "count"})
	}
	return defs
}

// tracedPass runs one job cycle untraced, for the reference wall time,
// then the same cycle traced: a bench-owned sink on the pipeline and the
// runtime, an engine that records worker busy time, and bench spans
// around each job and public call. It prints the self-time report,
// writes the spans and layers.json, and returns the per-layer metrics,
// including the ladder.
func tracedPass(o options, w *workload, sc scale, inst *instance, plain *client, tr *tracer, check func(jobResult) error, log io.Writer) ([]jobResult, map[string]float64, error) {
	ref := time.Now()
	runCycle(plain, inst, check)
	refWall := time.Since(ref)

	workers := runtime.NumCPU()
	busy := obs.NewWorkerBusy(workers)
	lsopc.SetRuntimeTrace(tr)
	defer lsopc.SetRuntimeTrace(nil)
	pipe, err := lsopc.NewPipeline(w.preset(sc), engine.New("gpu", workers).InstrumentBusy(busy), lsopc.WithTraceSink(tr))
	if err != nil {
		return nil, nil, err
	}
	if err := inst.warm(&client{pipe: pipe}); err != nil {
		return nil, nil, fmt.Errorf("traced warm-up: %w", err)
	}
	tr.clearEvents()
	busy.Reset()
	before := lsopc.MetricsSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	jobs := runCycle(&client{pipe: pipe, tr: tr}, inst, check)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	after := lsopc.MetricsSnapshot()
	lsopc.SetRuntimeTrace(nil)

	spans := tr.spanTree()
	stats, self := selfTimes(spans)
	m := layerMetrics(spans, jobs, func(k string) float64 { return after[k] - before[k] })
	perJob := 1 / float64(len(jobs))
	m["engine.utilization"] = busy.Utilization(wall)
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) * perJob
	m["go.mallocs"] = float64(ms1.Mallocs-ms0.Mallocs) * perJob
	m["go.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) * perJob
	m["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 * perJob
	m["obs.trace_overhead"] = wall.Seconds()/refWall.Seconds() - 1
	tr.mu.Lock()
	m["obs.events_per_job"] = float64(len(tr.events)) * perJob
	tr.mu.Unlock()

	lad, err := ladder(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range lad {
		m[k] = v
	}
	printSelfTimes(log, w.name, stats)
	if err := writeTrace(o.traceDir, w.name, spans, self, stats, m); err != nil {
		return nil, nil, err
	}
	return jobs, m, nil
}

// layerMetrics derives the per-layer metrics from the traced cycle's
// spans, its job results and the deltas of the program's metrics
// registry (delta).
func layerMetrics(spans []span, jobs []jobResult, delta func(string) float64) map[string]float64 {
	perJob := 1 / float64(len(jobs))
	m := map[string]float64{}
	fftNS := 0.0
	for _, h := range []string{"forward", "inverse", "inverse_banded", "forward_banded_cols"} {
		fftNS += delta("fft.batch." + h + "_ns.sum")
	}
	lithoNS := delta("litho.forward_ns.sum") + delta("litho.gradient_ns.sum") + delta("litho.forward_gradient_ns.sum")
	m["fft.banded_cols.calls"] = delta("fft.batch.forward_banded_cols_ns.count") * perJob
	m["fft.banded_cols.busy_s"] = delta("fft.batch.forward_banded_cols_ns.sum") / 1e9 * perJob
	m["fft.inverse_banded.calls"] = delta("fft.batch.inverse_banded_ns.count") * perJob
	m["fft.inverse_banded.busy_s"] = delta("fft.batch.inverse_banded_ns.sum") / 1e9 * perJob
	hits := delta("fft.plan_cache.hits")
	m["fft.plan_cache.hit_ratio"] = ratio(hits, hits+delta("fft.plan_cache.misses"))
	m["litho.forward_gradient.calls"] = delta("litho.forward_gradient_ns.count") * perJob
	m["litho.forward_gradient.busy_s"] = delta("litho.forward_gradient_ns.sum") / 1e9 * perJob
	m["litho.forward.calls"] = delta("litho.forward_ns.count") * perJob
	m["litho.forward.busy_s"] = delta("litho.forward_ns.sum") / 1e9 * perJob
	m["litho.fft_share"] = ratio(fftNS, lithoNS)
	m["rt.pool.leases"] = delta("rt.pool.leases") * perJob
	m["rt.pool.misses"] = delta("rt.pool.misses") * perJob
	m["rt.pool.reuse_ratio"] = ratio(delta("rt.pool.reuses"), delta("rt.pool.leases"))

	byName := map[string][]span{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Trace == "setup" {
			if s.Name == "lsopc.Target" {
				byName[s.Name] = append(byName[s.Name], s)
			}
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	ms := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.dur())/1e6)
		}
		return out
	}
	sumS := func(name string) float64 {
		var t int64
		for _, s := range byName[name] {
			t += s.dur()
		}
		return float64(t) / 1e9
	}

	iters := byName["iteration"]
	var iterNS, cornerNS int64
	var selfMS []float64
	for _, it := range iters {
		var slowest int64
		for _, k := range children[it.ID] {
			if strings.HasPrefix(k.Name, "corner.") {
				cornerNS += k.dur()
				slowest = max(slowest, k.dur())
			}
		}
		iterNS += it.dur()
		selfMS = append(selfMS, float64(it.dur()-slowest)/1e6)
	}
	iterMS := ms("iteration")
	m["solve.iters"] = float64(len(iters)) * perJob
	m["solve.iter_ms_p50"] = quantile(iterMS, 0.5)
	m["solve.iter_ms_p90"] = quantile(iterMS, 0.9)
	m["core.self_ms_per_iter"] = mean(selfMS)
	m["core.corner_overlap"] = ratio(float64(cornerNS), float64(iterNS))
	m["litho.forward_gradient.ms_p50"] = quantile(ms("corner.forward_gradient"), 0.5)

	// An iteration is coarse when a level switch of its run follows it.
	lastSwitch := map[string]int64{}
	for _, s := range byName["level_switch"] {
		lastSwitch[s.Trace+"/"+s.Run] = max(lastSwitch[s.Trace+"/"+s.Run], s.Start)
	}
	var coarse []float64
	for _, it := range iters {
		if sw, ok := lastSwitch[it.Trace+"/"+it.Run]; ok && it.End <= sw {
			coarse = append(coarse, float64(it.dur())/1e6)
		}
	}
	m["multires.level_switch_ms"] = sumS("level_switch") * 1e3 * perJob
	m["multires.coarse_iter_ms_p50"] = quantile(coarse, 0.5)

	var tiles, nonEmpty, passes float64
	for _, j := range jobs {
		tiles += float64(j.Tiles)
		nonEmpty += float64(j.NonEmpty)
		passes += float64(j.Passes)
	}
	tileSpans := byName["tile"]
	firstSweep := 0
	tilesByTrace := map[string][]span{}
	for _, t := range tileSpans {
		if t.Pass == 0 {
			firstSweep++
		}
		tilesByTrace[t.Trace] = append(tilesByTrace[t.Trace], t)
	}
	var outside int64
	for _, call := range byName["lsopc.OptimizeTiled"] {
		outside += call.dur() - covered(call, tilesByTrace[call.Trace])
	}
	m["tiling.tiles"] = tiles * perJob
	m["tiling.nonempty_tiles"] = nonEmpty * perJob
	m["tiling.tile_runs"] = float64(len(tileSpans)) * perJob
	m["tiling.useful_ratio"] = ratio(float64(firstSweep), float64(len(tileSpans)))
	m["tiling.tile_ms_p50"] = quantile(ms("tile"), 0.5)
	m["tiling.tile_ms_p90"] = quantile(ms("tile"), 0.9)
	m["tiling.stitch_passes"] = passes * perJob
	m["tiling.stitch_s"] = sumS("stitch_pass") * perJob
	m["tiling.outside_tiles_s"] = float64(outside) / 1e9 * perJob

	m["lsopc.target_ms"] = quantile(ms("lsopc.Target"), 0.5)
	m["lsopc.optimize_s_p50"] = quantile(append(ms("lsopc.OptimizeLevelSet"), ms("lsopc.OptimizeTiled")...), 0.5) / 1e3
	m["lsopc.evaluate_ms_p50"] = quantile(ms("evaluate"), 0.5)
	m["procwin.sweep_ms_p50"] = quantile(ms("lsopc.ProcessWindow"), 0.5)
	m["procwin.sweep_ms_p80"] = quantile(ms("lsopc.ProcessWindow"), 0.8)
	return m
}

// ladderSink keeps each ladder call's result alive so the compiler
// cannot drop the call.
var ladderSink any

// ladder times single calls on B4 at the workload scale's clip preset
// with testing.Benchmark: ms and allocations per call.
func ladder(sc scale) (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", sc.benchtime); err != nil {
		return nil, err
	}
	pipe, err := lsopc.NewPipeline(sc.preset, lsopc.GPUEngine())
	if err != nil {
		return nil, err
	}
	l, err := lsopc.BenchmarkByID("B4")
	if err != nil {
		return nil, err
	}
	target, err := pipe.Target(l)
	if err != nil {
		return nil, err
	}
	sim := pipe.Simulator()
	n := pipe.GridSize()
	band := pipe.Resources().Radius()
	spec := sim.MaskSpectrum(target)
	const batch = 8
	fields, pristine := make([]*grid.CField, batch), make([]*grid.CField, batch)
	for i := range fields {
		fields[i], pristine[i] = grid.NewCField(n, n), spec.Clone()
	}
	plan := fft.NewBatchPlan2D(n, n, pipe.Engine())
	imgs := litho.NewCornerImages(n)
	grad := lsopc.NewField(n, n)
	psi := levelset.SignedDistance(target)
	cut := cutThrough(l, target, int(pipe.PixelNM()))

	// Each FFT call starts from the same spectra: repeated in-place
	// transforms would grow the data without bound.
	restore := func(b *testing.B) {
		b.StopTimer()
		for i := range fields {
			fields[i].CopyFrom(pristine[i])
		}
		b.StartTimer()
	}
	calls := map[string]func(b *testing.B){
		"BatchForwardBandedCols": func(b *testing.B) { restore(b); plan.BatchForwardBandedCols(fields, band) },
		"BatchInverseBanded":     func(b *testing.B) { restore(b); plan.BatchInverseBanded(fields, band) },
		"MaskSpectrumInto":       func(*testing.B) { sim.MaskSpectrumInto(spec, target) },
		"Forward":                func(*testing.B) { sim.Forward(imgs, spec, litho.Nominal) },
		"ForwardAndGradient": func(*testing.B) {
			grad.Zero()
			ladderSink = sim.ForwardAndGradient(grad, spec, litho.Nominal, target, imgs, 1)
		},
		"SignedDistance":  func(*testing.B) { ladderSink = levelset.SignedDistance(target) },
		"Reinitialize":    func(*testing.B) { ladderSink = levelset.Reinitialize(psi) },
		"ReinitializeFMM": func(*testing.B) { ladderSink = levelset.ReinitializeFMM(psi) },
		"Evaluate":        func(*testing.B) { ladderSink, err = pipe.Evaluate(l, target, 0) },
		"ProcessWindow":   func(*testing.B) { ladderSink, err = pipe.ProcessWindow(target, cut) },
	}
	out := map[string]float64{}
	for _, name := range ladderCalls {
		call := calls[name]
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				call(b)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out["ladder."+name+"_ms"] = float64(r.T.Nanoseconds()) / float64(r.N) / 1e6
		out["ladder."+name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}
