package experiments

import (
	"time"

	"lsopc"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

// ConvergenceTrace is one optimizer run's cost-per-iteration series.
type ConvergenceTrace struct {
	Label string
	Cost  []float64
}

// CGvsGD runs the level-set optimizer twice on one benchmark — with the
// PRP conjugate-gradient velocity and with plain steepest descent — and
// returns both cost traces. This is the convergence study behind the
// paper's contribution (ii).
func CGvsGD(preset lsopc.Preset, caseID string, maxIter int) ([]ConvergenceTrace, error) {
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	var out []ConvergenceTrace
	for _, cg := range []bool{true, false} {
		pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
		if err != nil {
			return nil, err
		}
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = maxIter
		opts.UseCG = cg
		run, err := pipe.OptimizeLevelSet(layout, opts)
		if err != nil {
			return nil, err
		}
		label := "PRP-CG"
		if !cg {
			label = "gradient-descent"
		}
		tr := ConvergenceTrace{Label: label}
		for _, h := range run.History {
			tr.Cost = append(tr.Cost, h.Cost)
		}
		out = append(out, tr)
	}
	return out, nil
}

// MinCost returns the lowest cost in the trace.
func (t ConvergenceTrace) MinCost() float64 {
	best := t.Cost[0]
	for _, c := range t.Cost[1:] {
		if c < best {
			best = c
		}
	}
	return best
}

// CombinedKernelResult quantifies the Eq. 17 fused-kernel forward path:
// its pointwise error against the exact SOCS sum and its speedup.
type CombinedKernelResult struct {
	RelativeError float64       // ‖I_fast − I_exact‖ / ‖I_exact‖
	ExactTime     time.Duration // K-kernel forward
	FastTime      time.Duration // fused single-kernel forward
	Speedup       float64
	Kernels       int
}

// CombinedKernelAblation measures the Eq. 17 approximation on one
// benchmark's design mask.
func CombinedKernelAblation(preset lsopc.Preset, caseID string, repeats int) (*CombinedKernelResult, error) {
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
	sim := pipe.Simulator()
	spec := sim.MaskSpectrum(target)
	n := sim.GridSize()
	exact := grid.NewField(n, n)
	fast := grid.NewField(n, n)
	if repeats < 1 {
		repeats = 1
	}

	start := time.Now()
	for i := 0; i < repeats; i++ {
		sim.Aerial(exact, spec, litho.Nominal)
	}
	exactTime := time.Since(start) / time.Duration(repeats)

	start = time.Now()
	for i := 0; i < repeats; i++ {
		sim.AerialFast(fast, spec, litho.Nominal)
	}
	fastTime := time.Since(start) / time.Duration(repeats)

	diff := grid.NewField(n, n)
	diff.Sub(exact, fast)
	res := &CombinedKernelResult{
		RelativeError: diff.Norm() / exact.Norm(),
		ExactTime:     exactTime,
		FastTime:      fastTime,
		Kernels:       sim.Config().Optics.Kernels,
	}
	if fastTime > 0 {
		res.Speedup = float64(exactTime) / float64(fastTime)
	}
	return res, nil
}

// PVBSweepRow is one point of the w_pvb trade-off study.
type PVBSweepRow struct {
	Weight    float64
	EPE       int
	PVBandNM2 float64
	Score     float64
}

// PVBWeightSweep optimizes one benchmark under several w_pvb values,
// exposing the EPE-versus-PVB trade-off the paper's §IV discusses.
func PVBWeightSweep(preset lsopc.Preset, caseID string, weights []float64, maxIter int) ([]PVBSweepRow, error) {
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	var out []PVBSweepRow
	for _, w := range weights {
		pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
		if err != nil {
			return nil, err
		}
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = maxIter
		opts.PVBWeight = w
		run, err := pipe.OptimizeLevelSet(layout, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, PVBSweepRow{
			Weight:    w,
			EPE:       run.Report.EPEViolations,
			PVBandNM2: run.Report.PVBandNM2,
			Score:     run.Report.Score(),
		})
	}
	return out, nil
}

// TimeStepStudy compares the three step-size policies of Algorithm 1's
// line 5 on one benchmark: fixed CFL step, the feedback-adaptive step,
// and the exact line search (reference [9]).
func TimeStepStudy(preset lsopc.Preset, caseID string, maxIter int) ([]ConvergenceTrace, error) {
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label string
		mut   func(*lsopc.LevelSetOptions)
	}{
		{"fixed-step", func(o *lsopc.LevelSetOptions) { o.AdaptiveStep = false }},
		{"adaptive-step", func(o *lsopc.LevelSetOptions) { o.AdaptiveStep = true }},
		{"line-search", func(o *lsopc.LevelSetOptions) { o.AdaptiveStep = false; o.LineSearch = true }},
	}
	var out []ConvergenceTrace
	for _, v := range variants {
		pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
		if err != nil {
			return nil, err
		}
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = maxIter
		v.mut(&opts)
		run, err := pipe.OptimizeLevelSet(layout, opts)
		if err != nil {
			return nil, err
		}
		tr := ConvergenceTrace{Label: v.label}
		for _, h := range run.History {
			tr.Cost = append(tr.Cost, h.Cost)
		}
		out = append(out, tr)
	}
	return out, nil
}

// ResolutionRow is one preset's outcome in the resolution study.
type ResolutionRow struct {
	Preset    lsopc.Preset
	GridPx    int
	PixelNM   float64
	EPE       int
	PVBandNM2 float64
	Seconds   float64
}

// ResolutionStudy optimizes one benchmark with the level-set method at
// several presets, quantifying how simulation resolution affects the
// contest metrics (the checker's 15 nm tolerance is sub-pixel on coarse
// grids, which inflates EPE counts).
func ResolutionStudy(presets []lsopc.Preset, caseID string, maxIter int) ([]ResolutionRow, error) {
	layout, err := lsopc.BenchmarkByID(caseID)
	if err != nil {
		return nil, err
	}
	var out []ResolutionRow
	for _, p := range presets {
		pipe, err := lsopc.NewPipeline(p, lsopc.GPUEngine())
		if err != nil {
			return nil, err
		}
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = maxIter
		run, err := pipe.OptimizeLevelSet(layout, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, ResolutionRow{
			Preset:    p,
			GridPx:    pipe.GridSize(),
			PixelNM:   pipe.PixelNM(),
			EPE:       run.Report.EPEViolations,
			PVBandNM2: run.Report.PVBandNM2,
			Seconds:   run.Elapsed.Seconds(),
		})
	}
	return out, nil
}
