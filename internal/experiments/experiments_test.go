package experiments

import (
	"bytes"
	"strings"
	"testing"

	"lsopc"
)

// smokeOptions runs the full harness at unit-test scale: the smallest
// preset, two benchmarks, tiny iteration budgets.
func smokeOptions() Options {
	return Options{
		Preset:    lsopc.PresetTest,
		Cases:     []string{"B4", "B10"},
		IterScale: 0.15,
	}
}

func TestRunProducesAllMethods(t *testing.T) {
	var progress bytes.Buffer
	o := smokeOptions()
	o.Progress = &progress
	rows, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Reports) != len(MethodNames) {
			t.Fatalf("%s: %d method reports, want %d", r.ID, len(r.Reports), len(MethodNames))
		}
		for _, m := range MethodNames {
			if _, ok := r.Reports[m]; !ok {
				t.Fatalf("%s: missing method %s", r.ID, m)
			}
		}
		if r.OursCPUSeconds <= 0 || r.OursGPUSeconds <= 0 {
			t.Fatalf("%s: missing engine runtimes", r.ID)
		}
		if r.PatternArea <= 0 {
			t.Fatalf("%s: missing pattern area", r.ID)
		}
	}
	if progress.Len() == 0 {
		t.Fatal("no progress output")
	}
}

func TestRunUnknownCase(t *testing.T) {
	o := smokeOptions()
	o.Cases = []string{"B77"}
	if _, err := Run(o); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestFormatTables(t *testing.T) {
	rows, err := Run(smokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	t1 := FormatTable1(rows)
	for _, want := range []string{"Table I", "B4", "B10", "Avg.", "MOSAIC_exact", "Ours"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I output missing %q:\n%s", want, t1)
		}
	}
	t2 := FormatTable2(rows)
	for _, want := range []string{"Table II", "Ours CPU", "Ours GPU", "Avg."} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II output missing %q:\n%s", want, t2)
		}
	}
}

func TestFig2Evolution(t *testing.T) {
	run, err := Fig2Evolution(lsopc.PresetTest, "B4", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Snapshots) != 2 {
		t.Fatalf("expected 2 snapshots, got %d", len(run.Snapshots))
	}
	// Evolution must actually move the contour between snapshots.
	a := run.Snapshots[0].Mask
	b := run.Snapshots[1].Mask
	if a.XORCount(b) == 0 {
		t.Fatal("mask did not evolve between snapshots")
	}
}

func TestFig1Measurement(t *testing.T) {
	d, err := Fig1Measurement(lsopc.PresetTest, "B1")
	if err != nil {
		t.Fatal(err)
	}
	if d.PVBandNM2 <= 0 {
		t.Fatal("PV band must be positive for an unoptimized design")
	}
	if int(d.PVBand.Sum())*16*16 != int(d.PVBandNM2) {
		t.Fatalf("PV band field (%g px) inconsistent with area %g nm²", d.PVBand.Sum(), d.PVBandNM2)
	}
	if len(d.ProbeDists) == 0 {
		t.Fatal("no probe distances")
	}
	if d.EPEThreshold != 15 {
		t.Fatalf("threshold %g, want contest 15", d.EPEThreshold)
	}
	// The violation count must match the distances against the
	// threshold.
	n := 0
	for _, dist := range d.ProbeDists {
		if dist >= d.EPEThreshold {
			n++
		}
	}
	if n != d.Violations {
		t.Fatalf("violations %d inconsistent with distances (%d)", d.Violations, n)
	}
}

func TestCGvsGDTraces(t *testing.T) {
	traces, err := CGvsGD(lsopc.PresetTest, "B4", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("trace count %d", len(traces))
	}
	if traces[0].Label != "PRP-CG" || traces[1].Label != "gradient-descent" {
		t.Fatalf("labels: %q, %q", traces[0].Label, traces[1].Label)
	}
	for _, tr := range traces {
		if len(tr.Cost) != 6 {
			t.Fatalf("%s: %d iterations", tr.Label, len(tr.Cost))
		}
		if tr.MinCost() >= tr.Cost[0] {
			t.Fatalf("%s: no improvement", tr.Label)
		}
	}
	out := FormatConvergence(traces)
	if !strings.Contains(out, "PRP-CG") || !strings.Contains(out, "min(") {
		t.Fatal("convergence formatting incomplete")
	}
}

func TestCombinedKernelAblation(t *testing.T) {
	res, err := CombinedKernelAblation(lsopc.PresetTest, "B4", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels != 4 {
		t.Fatalf("kernel count %d", res.Kernels)
	}
	// Eq. 17 is approximate for K>1: error strictly between 0 and 100%.
	if res.RelativeError <= 0 || res.RelativeError > 1 {
		t.Fatalf("relative error %g out of range", res.RelativeError)
	}
	if res.FastTime <= 0 || res.ExactTime <= 0 {
		t.Fatal("timings missing")
	}
	if res.String() == "" {
		t.Fatal("empty formatting")
	}
}

func TestPVBWeightSweep(t *testing.T) {
	rows, err := PVBWeightSweep(lsopc.PresetTest, "B4", []float64{0, 0.6}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("row count %d", len(rows))
	}
	if rows[0].Weight != 0 || rows[1].Weight != 0.6 {
		t.Fatal("weights wrong")
	}
	out := FormatPVBSweep(rows)
	if !strings.Contains(out, "w_pvb") {
		t.Fatal("sweep formatting incomplete")
	}
}

func TestEngineRuntime(t *testing.T) {
	d, err := EngineRuntime(lsopc.PresetTest, "B10", lsopc.CPUEngine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("zero runtime")
	}
}

func TestItersScaling(t *testing.T) {
	o := Options{IterScale: 0.1}
	if got := o.iters(50); got != 5 {
		t.Fatalf("iters(50) at 0.1 = %d", got)
	}
	o.IterScale = 0
	if got := o.iters(50); got != 50 {
		t.Fatalf("iters(50) at default = %d", got)
	}
	o.IterScale = 0.001
	if got := o.iters(50); got != 1 {
		t.Fatalf("iters floor = %d", got)
	}
}

func TestMaskComplexityStudy(t *testing.T) {
	rows, err := MaskComplexityStudy(lsopc.PresetTest, "B4", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("row count %d, want 5", len(rows))
	}
	if rows[4].Method != OursName {
		t.Fatalf("last row %q, want %q", rows[4].Method, OursName)
	}
	for _, r := range rows {
		if r.AreaPx == 0 || r.PerimeterPx == 0 {
			t.Fatalf("%s: empty mask measured", r.Method)
		}
	}
	out := FormatComplexity("B4", rows)
	if !strings.Contains(out, "Ours") || !strings.Contains(out, "islands") {
		t.Fatal("complexity formatting incomplete")
	}
}

func TestTimeStepStudy(t *testing.T) {
	traces, err := TimeStepStudy(lsopc.PresetTest, "B4", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("trace count %d", len(traces))
	}
	labels := map[string]bool{}
	for _, tr := range traces {
		labels[tr.Label] = true
		if len(tr.Cost) != 5 {
			t.Fatalf("%s: %d iterations", tr.Label, len(tr.Cost))
		}
	}
	for _, want := range []string{"fixed-step", "adaptive-step", "line-search"} {
		if !labels[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []CaseResult{{
		ID: "B4", PatternArea: 82560,
		Reports: map[string]lsopc.Report{
			"MOSAIC_fast": {EPEViolations: 1, PVBandNM2: 100, RuntimeSec: 2},
			OursName:      {EPEViolations: 0, PVBandNM2: 90, RuntimeSec: 3},
		},
		OursCPUSeconds: 5, OursGPUSeconds: 2,
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"case,pattern_area_nm2", "B4,82560,MOSAIC_fast,1,100", "B4,82560,Ours,0,90", "Ours(CPU)", "Ours(GPU)"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestHybridStudy(t *testing.T) {
	rows, err := HybridStudy(lsopc.PresetTest, "B4", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("row count %d", len(rows))
	}
	want := []string{"rule-based", "level-set", "hybrid"}
	for i, r := range rows {
		if r.Method != want[i] {
			t.Fatalf("row %d method %q", i, r.Method)
		}
		if r.Elapsed < 0 {
			t.Fatal("missing elapsed time")
		}
	}
	out := FormatHybrid("B4", rows)
	if !strings.Contains(out, "hybrid") || !strings.Contains(out, "MRC") {
		t.Fatal("hybrid formatting incomplete")
	}
}

func TestResolutionStudy(t *testing.T) {
	rows, err := ResolutionStudy([]lsopc.Preset{lsopc.PresetTest}, "B10", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].GridPx != 128 || rows[0].PixelNM != 16 {
		t.Fatalf("rows %+v", rows)
	}
	out := FormatResolution("B10", rows)
	if !strings.Contains(out, "Resolution study") || !strings.Contains(out, "test") {
		t.Fatal("resolution formatting incomplete")
	}
}
