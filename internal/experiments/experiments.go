// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the synthetic benchmark suite:
//
//   - Table I  — #EPE / PVB / contest score for B1…B10 across
//     MOSAIC_fast, MOSAIC_exact, robust OPC, PVOPC and the level-set
//     method ("Ours").
//   - Table II — runtime per benchmark, including Ours on the serial
//     (CPU) and parallel (GPU-substitute) engines.
//   - Fig. 1   — EPE probe distances and the PV band of a printed mask.
//   - Fig. 2   — the level-set contour evolution over iterations.
//   - Ablations — CG vs plain gradient descent convergence, the Eq. 17
//     fused-kernel approximation, and the w_pvb sweep.
//
// Everything is driven through the public lsopc façade, so the harness
// doubles as an integration test of the documented API.
package experiments

import (
	"fmt"
	"io"
	"time"

	"lsopc"
	"lsopc/internal/grid"
	"lsopc/internal/metrics"
)

// MethodNames lists the Table I columns in paper order; OursName is the
// level-set method.
var MethodNames = []string{"MOSAIC_fast", "MOSAIC_exact", "robust OPC", "PVOPC", OursName}

// OursName labels the paper's method in result maps.
const OursName = "Ours"

// Options configures a table regeneration run.
type Options struct {
	// Preset selects the simulation scale (PresetFast reproduces the
	// table shape in minutes; PresetPaper is contest scale).
	Preset lsopc.Preset
	// Engine runs the optimizers (defaults to the parallel engine).
	Engine *lsopc.Engine
	// Cases restricts the benchmarks (nil = all ten).
	Cases []string
	// IterScale scales every method's iteration budget (0 = 1.0); use
	// small values for smoke tests.
	IterScale float64
	// Sink, when non-nil, receives one EventProgress per completed run
	// plus the structured iteration/corner/span events from every
	// optimization in the sweep.
	Sink lsopc.TraceSink
	// Progress, when non-nil, receives one line per completed run. It is
	// a thin adapter over Sink: when Sink is nil the writer is wrapped in
	// a line sink, so existing callers keep byte-identical output.
	Progress io.Writer
}

// sink resolves the effective progress sink once per run: the explicit
// Sink, the legacy Progress writer wrapped as a line sink, or both.
func (o Options) sink() lsopc.TraceSink {
	switch {
	case o.Sink != nil && o.Progress != nil:
		return lsopc.TeeTraceSink(o.Sink, lsopc.NewLineTraceSink(o.Progress))
	case o.Sink != nil:
		return o.Sink
	case o.Progress != nil:
		return lsopc.NewLineTraceSink(o.Progress)
	}
	return nil
}

func (o Options) iters(base int) int {
	s := o.IterScale
	if s == 0 {
		s = 1
	}
	n := int(float64(base)*s + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func (o Options) cases() []string {
	if len(o.Cases) > 0 {
		return o.Cases
	}
	ids := make([]string, 0, 10)
	for _, s := range lsopc.Benchmarks() {
		ids = append(ids, s.ID)
	}
	return ids
}

func progressf(sink lsopc.TraceSink, format string, args ...any) {
	if sink != nil {
		sink.Emit(lsopc.TraceEvent{Type: lsopc.EventProgress, Msg: fmt.Sprintf(format, args...)})
	}
}

// CaseResult holds every method's outcome on one benchmark.
type CaseResult struct {
	ID          string
	PatternArea int
	// Reports maps method name → contest report (Ours runs on the
	// options engine).
	Reports map[string]lsopc.Report
	// OursCPUSeconds / OursGPUSeconds are the Table II runtimes of the
	// level-set method on the serial and parallel engines.
	OursCPUSeconds float64
	OursGPUSeconds float64
}

// levelSetOptions returns the paper-configured optimizer options at the
// harness's iteration scale.
func (o Options) levelSetOptions() lsopc.LevelSetOptions {
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = o.iters(opts.MaxIter)
	return opts
}

// Run executes every method on every selected benchmark, producing the
// data behind Tables I and II in one pass.
func Run(o Options) ([]CaseResult, error) {
	eng := o.Engine
	if eng == nil {
		eng = lsopc.GPUEngine()
	}
	// The effective sink is resolved once: an explicit Sink carries the
	// full structured event stream and is attached to the pipelines; a
	// bare Progress writer only receives the per-run progress lines
	// (keeping legacy output byte-identical).
	sink := o.sink()
	var popts []lsopc.PipelineOption
	if o.Sink != nil {
		popts = append(popts, lsopc.WithTraceSink(o.Sink))
	}
	pipe, err := lsopc.NewPipeline(o.Preset, eng, popts...)
	if err != nil {
		return nil, err
	}
	cpuPipe, err := lsopc.NewPipeline(o.Preset, lsopc.CPUEngine(), popts...)
	if err != nil {
		return nil, err
	}

	var out []CaseResult
	for _, id := range o.cases() {
		layout, err := lsopc.BenchmarkByID(id)
		if err != nil {
			return nil, err
		}
		cr := CaseResult{ID: id, PatternArea: layout.Area(), Reports: make(map[string]lsopc.Report)}

		// Baselines.
		for _, v := range []lsopc.BaselineVariant{lsopc.MosaicFast, lsopc.MosaicExact, lsopc.RobustOPC, lsopc.PVOPC} {
			opts := lsopc.DefaultBaselineOptions(v)
			opts.MaxIter = o.iters(opts.MaxIter)
			run, err := pipe.OptimizeBaseline(layout, opts)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", id, v, err)
			}
			cr.Reports[v.String()] = run.Report
			progressf(sink, "%s %-12s %s\n", id, v, run.Report)
		}

		// Ours on the parallel engine (Table I entry + GPU runtime).
		lsOpts := o.levelSetOptions()
		run, err := pipe.OptimizeLevelSet(layout, lsOpts)
		if err != nil {
			return nil, fmt.Errorf("%s/level-set: %w", id, err)
		}
		cr.Reports[OursName] = run.Report
		cr.OursGPUSeconds = run.Elapsed.Seconds()
		progressf(sink, "%s %-12s %s\n", id, "Ours(GPU)", run.Report)

		// Ours again on the serial engine (Table II CPU runtime).
		cpuRun, err := cpuPipe.OptimizeLevelSet(layout, lsOpts)
		if err != nil {
			return nil, fmt.Errorf("%s/level-set-cpu: %w", id, err)
		}
		cr.OursCPUSeconds = cpuRun.Elapsed.Seconds()
		progressf(sink, "%s %-12s RT=%.1fs\n", id, "Ours(CPU)", cr.OursCPUSeconds)

		out = append(out, cr)
	}
	pipe.Release()
	cpuPipe.Release()
	return out, nil
}

// Fig2Evolution optimizes one benchmark while recording mask snapshots,
// reproducing the paper's Fig. 2 (initial mask vs mask after t
// iterations).
func Fig2Evolution(preset lsopc.Preset, caseID string, maxIter, snapshotEvery int) (*lsopc.RunResult, error) {
	pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
	if err != nil {
		return nil, err
	}
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = maxIter
	opts.SnapshotEvery = snapshotEvery
	return pipe.OptimizeLevelSet(layout, opts)
}

// Fig1Data carries the measurement illustration of Fig. 1: the corner
// prints whose XOR is the PV band, and the per-probe EPE distances.
type Fig1Data struct {
	Target       *lsopc.Field
	Nominal      *lsopc.Field
	Outer        *lsopc.Field
	Inner        *lsopc.Field
	PVBand       *lsopc.Field // 1 where outer and inner disagree
	PVBandNM2    float64
	ProbeDists   []float64
	EPEThreshold float64
	Violations   int
}

// Fig1Measurement prints the (unoptimized) design of one benchmark and
// measures it, yielding the PV-band region of Fig. 1(b) and the EPE
// probe distances of Fig. 1(a).
func Fig1Measurement(preset lsopc.Preset, caseID string) (*Fig1Data, error) {
	pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
	if err != nil {
		return nil, err
	}
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	target, err := pipe.Target(layout)
	if err != nil {
		return nil, err
	}
	nominal, outer, inner, err := pipe.PrintedImages(target)
	if err != nil {
		return nil, err
	}
	band := grid.NewFieldLike(outer)
	for i := range band.Data {
		if (outer.Data[i] > 0.5) != (inner.Data[i] > 0.5) {
			band.Data[i] = 1
		}
	}
	probes := metrics.Probes(layout)
	viol, dists := metrics.EPE(nominal, probes, pipe.PixelNM())
	return &Fig1Data{
		Target:       target,
		Nominal:      nominal,
		Outer:        outer,
		Inner:        inner,
		PVBand:       band,
		PVBandNM2:    metrics.PVBand(outer, inner, pipe.PixelNM()),
		ProbeDists:   dists,
		EPEThreshold: metrics.EPEThresholdNM,
		Violations:   viol,
	}, nil
}

// EngineRuntime measures one level-set optimization wall time on the
// given engine (the Table II per-engine measurement in isolation).
func EngineRuntime(preset lsopc.Preset, caseID string, eng *lsopc.Engine, maxIter int) (time.Duration, error) {
	pipe, err := lsopc.NewPipeline(preset, eng)
	if err != nil {
		return 0, err
	}
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return 0, err
	}
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = maxIter
	run, err := pipe.OptimizeLevelSet(layout, opts)
	if err != nil {
		return 0, err
	}
	return run.Elapsed, nil
}
