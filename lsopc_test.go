package lsopc

import (
	"testing"
	"time"
)

func TestPresetParsing(t *testing.T) {
	for _, tc := range []struct {
		s string
		p Preset
	}{{"test", PresetTest}, {"fast", PresetFast}, {"paper", PresetPaper}} {
		got, err := ParsePreset(tc.s)
		if err != nil || got != tc.p {
			t.Errorf("ParsePreset(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Error("unknown preset accepted")
	}
	if Preset(9).String() == "" {
		t.Error("unknown preset must still format")
	}
}

func TestNewPipelineTestPreset(t *testing.T) {
	p, err := NewPipeline(PresetTest, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	if p.GridSize() != 128 || p.PixelNM() != 16 {
		t.Fatalf("test preset dims: %d px @ %g nm", p.GridSize(), p.PixelNM())
	}
	if p.Preset() != PresetTest || p.Engine() == nil || p.Simulator() == nil {
		t.Fatal("pipeline accessors broken")
	}
}

func TestNewPipelineInvalidPreset(t *testing.T) {
	if _, err := NewPipeline(Preset(77), nil); err == nil {
		t.Fatal("invalid preset accepted")
	}
}

func TestBenchmarkAccess(t *testing.T) {
	specs := Benchmarks()
	if len(specs) != 10 {
		t.Fatalf("benchmark count %d", len(specs))
	}
	l := Benchmark("B10")
	if l.Area() != 102400 {
		t.Fatalf("B10 area %d", l.Area())
	}
	if _, err := BenchmarkByID("B0"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Benchmark with unknown id must panic")
		}
	}()
	Benchmark("nope")
}

func TestTargetMatchesArea(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := Benchmark("B4")
	target, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	if target.W != 128 || target.H != 128 {
		t.Fatalf("target shape %dx%d", target.W, target.H)
	}
	// Box-rasterised area ≈ geometric area within one pixel row of the
	// perimeter (16 nm pixels are coarse).
	gotNM2 := target.Sum() * 16 * 16
	if gotNM2 < 0.8*float64(l.Area()) || gotNM2 > 1.2*float64(l.Area()) {
		t.Fatalf("raster area %g vs layout %d", gotNM2, l.Area())
	}
}

// TestEndToEndLevelSetRun is the headline integration test: optimize a
// full benchmark at test scale and verify the optimized mask beats the
// unoptimized design on the contest metrics.
func TestEndToEndLevelSetRun(t *testing.T) {
	p, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	l := Benchmark("B4")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 12

	run, err := p.OptimizeLevelSet(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run.Method != "level-set" || run.LevelSet == nil || run.Baseline != nil {
		t.Fatal("run metadata wrong")
	}
	if run.Elapsed <= 0 {
		t.Fatal("elapsed time missing")
	}

	// Evaluate the *unoptimized* mask (= target) for comparison.
	target, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := p.Evaluate(l, target, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	optCost := 4*run.Report.PVBandNM2 + 5000*float64(run.Report.EPEViolations)
	rawCost := 4*baseline.PVBandNM2 + 5000*float64(baseline.EPEViolations)
	if optCost >= rawCost {
		t.Fatalf("optimization did not improve metrics: opt %g vs raw %g (opt %+v, raw %+v)",
			optCost, rawCost, run.Report, baseline)
	}
	if run.Report.ShapeViolations > baseline.ShapeViolations {
		t.Fatalf("optimization broke shapes: %d vs %d", run.Report.ShapeViolations, baseline.ShapeViolations)
	}
}

func TestEndToEndBaselineRun(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := Benchmark("B10")
	opts := DefaultBaselineOptions(MosaicFast)
	opts.MaxIter = 9
	run, err := p.OptimizeBaseline(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if run.Method != "MOSAIC_fast" || run.Baseline == nil || run.LevelSet != nil {
		t.Fatal("baseline run metadata wrong")
	}
	if run.Report.ShapeViolations != 0 {
		t.Fatalf("B10 should print cleanly, got %d shape violations", run.Report.ShapeViolations)
	}
}

func TestEvaluateRejectsWrongMaskShape(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Field{W: 4, H: 4, Data: make([]float64, 16)}
	if _, err := p.Evaluate(Benchmark("B4"), bad, time.Second); err == nil {
		t.Fatal("wrong mask shape accepted")
	}
}

// TestPrintedImagesRejectsWrongSizeMask: a mask off the pipeline's grid
// is an error from PrintedImages, as from Evaluate, not a panic inside
// the forward transform.
func TestPrintedImagesRejectsWrongSizeMask(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []*Field{NewField(64, 64), NewField(128, 64)} {
		if nom, outer, inner, err := p.PrintedImages(mask); err == nil || nom != nil || outer != nil || inner != nil {
			t.Fatalf("%dx%d mask on the 128-px grid: images %v %v %v, err %v; want only an error", mask.W, mask.H, nom, outer, inner, err)
		}
		if _, err := p.Evaluate(Benchmark("B1"), mask, 0); err == nil {
			t.Fatalf("%dx%d mask on the 128-px grid accepted by Evaluate", mask.W, mask.H)
		}
	}
}

func TestPrintedImagesOrdering(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := p.Target(Benchmark("B10"))
	if err != nil {
		t.Fatal(err)
	}
	nom, outer, inner, err := p.PrintedImages(target)
	if err != nil {
		t.Fatal(err)
	}
	// Dose ordering: the +2% dose (outer) print is a superset of the
	// nominal print at identical focus; the defocused −2% dose (inner)
	// print is smaller than nominal for a well-behaved pattern.
	if outer.Sum() < nom.Sum() {
		t.Fatalf("outer print %g smaller than nominal %g", outer.Sum(), nom.Sum())
	}
	if inner.Sum() > nom.Sum() {
		t.Fatalf("inner print %g larger than nominal %g", inner.Sum(), nom.Sum())
	}
	for i := range nom.Data {
		if nom.Data[i] > 0.5 && outer.Data[i] < 0.5 {
			t.Fatal("nominal print must be contained in outer print")
		}
	}
}

func TestProcessWindowFacade(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := p.Target(Benchmark("B10"))
	if err != nil {
		t.Fatal(err)
	}
	// B10 is a 320 nm square centred at (1024,1024) nm → pixel (64,64).
	res, err := p.ProcessWindow(target, CutLine{X: 64, Y: 64, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetCD <= 0 {
		t.Fatal("no nominal CD measured")
	}
	// The contest window is 6 focus × 5 dose points.
	if len(res.Points) != 30 {
		t.Fatalf("matrix points %d, want 30", len(res.Points))
	}
	// A 320 nm feature is robust: window yield at ±10% should be high.
	if y := res.WindowYield(res.TargetCD, 0.10); y < 0.8 {
		t.Fatalf("B10 window yield %g", y)
	}
}

func TestRunReportRuntimeMatchesElapsed(t *testing.T) {
	p, err := NewPipeline(PresetTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBaselineOptions(PVOPC)
	opts.MaxIter = 4
	run, err := p.OptimizeBaseline(Benchmark("B10"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if run.Report.RuntimeSec != run.Elapsed.Seconds() {
		t.Fatalf("report runtime %g != elapsed %g", run.Report.RuntimeSec, run.Elapsed.Seconds())
	}
}
