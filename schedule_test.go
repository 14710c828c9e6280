package lsopc

import "testing"

// TestMultiResMatchesBaselineQuality is the coarse-to-fine acceptance
// gate: on every ICCAD benchmark the factor-2 schedule (same total
// iteration budget, the first half on the coarse grid) must converge
// into the same quality class as the full-resolution run — the coarse
// phase buys wall-clock, not a different optimum. EPE/PVB at the 128-px test
// preset are noisy discrete counts, so each case gets a loose bound and
// the benchmark-suite aggregate a tight one (per-case jitter cancels).
func TestMultiResMatchesBaselineQuality(t *testing.T) {
	p, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	base := DefaultLevelSetOptions()
	base.MaxIter = 40
	multi := base
	multi.MultiResFactor = 2 // the default split: 20 coarse iterations, 20 fine

	var sumEPEBase, sumEPEMulti int
	var sumPVBBase, sumPVBMulti float64
	for _, spec := range Benchmarks() {
		l := Benchmark(spec.ID)
		want, err := p.OptimizeLevelSet(l, base)
		if err != nil {
			t.Fatalf("%s baseline: %v", spec.ID, err)
		}
		got, err := p.OptimizeLevelSet(l, multi)
		if err != nil {
			t.Fatalf("%s multires: %v", spec.ID, err)
		}
		t.Logf("%s: EPE %d -> %d  PVB %.0f -> %.0f",
			spec.ID,
			want.Report.EPEViolations, got.Report.EPEViolations,
			want.Report.PVBandNM2, got.Report.PVBandNM2)

		if got.Mask.W != want.Mask.W || got.Mask.H != want.Mask.H {
			t.Fatalf("%s: multires mask %dx%d, want %dx%d",
				spec.ID, got.Mask.W, got.Mask.H, want.Mask.W, want.Mask.H)
		}
		if got.Iterations != want.Iterations {
			t.Errorf("%s: iteration budgets differ: %d vs %d",
				spec.ID, got.Iterations, want.Iterations)
		}
		if g, w := got.Report.EPEViolations, want.Report.EPEViolations; g > w+10 {
			t.Errorf("%s: EPE violations %d vs baseline %d", spec.ID, g, w)
		}
		if g, w := got.Report.PVBandNM2, want.Report.PVBandNM2; g > 2*w+2600 {
			t.Errorf("%s: PV band %.0f nm² vs baseline %.0f nm²", spec.ID, g, w)
		}
		sumEPEBase += want.Report.EPEViolations
		sumEPEMulti += got.Report.EPEViolations
		sumPVBBase += want.Report.PVBandNM2
		sumPVBMulti += got.Report.PVBandNM2
	}

	t.Logf("suite: EPE %d -> %d  PVB %.0f -> %.0f",
		sumEPEBase, sumEPEMulti, sumPVBBase, sumPVBMulti)
	if float64(sumEPEMulti) > 1.15*float64(sumEPEBase)+5 {
		t.Errorf("suite EPE violations %d vs baseline %d (>15%% worse)", sumEPEMulti, sumEPEBase)
	}
	if sumPVBMulti > 1.35*sumPVBBase {
		t.Errorf("suite PV band %.0f nm² vs baseline %.0f nm² (>35%% worse)", sumPVBMulti, sumPVBBase)
	}
}
