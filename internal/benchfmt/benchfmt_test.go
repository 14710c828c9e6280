package benchfmt

import (
	"path/filepath"
	"testing"
)

func mkFile(runs map[string]map[string]int64) *File {
	f := &File{Runs: map[string]Run{}}
	for label, benches := range runs {
		r := Run{Benchmarks: map[string]Measurement{}}
		for name, ns := range benches {
			r.Benchmarks[name] = Measurement{NsPerOp: ns, BytesPerOp: ns / 10, AllocsPerOp: 3, Iterations: 100}
		}
		f.Runs[label] = r
	}
	return f
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := mkFile(map[string]map[string]int64{
		"r1": {"A": 1000, "B": 2000},
		"r2": {"A": 1100, "B": 1900},
	})
	res, err := Compare(f, f, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("identical files: %d regressions: %+v", res.Regressions, res.Deltas)
	}
	// min-of-N: A aggregates to 1000, B to 1900.
	for _, d := range res.Deltas {
		want := map[string]float64{"A": 1000, "B": 1900}[d.Name]
		if d.Old != want || d.New != want {
			t.Fatalf("delta %s = %+v, want both sides %g", d.Name, d, want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "B": 2000}})
	newF := mkFile(map[string]map[string]int64{"r": {"A": 1250, "B": 2050}})
	res, err := Compare(oldF, newF, CompareOptions{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", res.Regressions, res.Deltas)
	}
	for _, d := range res.Deltas {
		if d.Name == "A" && !d.Regression {
			t.Fatalf("A (+25%%) not flagged: %+v", d)
		}
		if d.Name == "B" && d.Regression {
			t.Fatalf("B (+2.5%%) flagged: %+v", d)
		}
	}
}

// TestCompareZeroThreshold pins that an explicit zero threshold is
// zero allowance: any slowdown, however small, regresses.
func TestCompareZeroThreshold(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"A": 1000}})
	newF := mkFile(map[string]map[string]int64{"r": {"A": 1010}})
	res, err := Compare(oldF, newF, CompareOptions{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 1 || !res.Deltas[0].Regression {
		t.Fatalf("+1%% at threshold 0 not flagged: %+v", res.Deltas)
	}
}

func TestCompareLabels(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{
		"r1": {"A": 1000},
		"r2": {"A": 1200},
		"r3": {"A": 5000},
	})
	newF := mkFile(map[string]map[string]int64{"s1": {"A": 1210}})
	// Selecting only the slowest run makes the new side look fast.
	res, err := Compare(oldF, newF, CompareOptions{OldLabels: []string{"r3"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Deltas[0]; d.Old != 5000 {
		t.Fatalf("label-selected old = %g, want 5000", d.Old)
	}
	if _, err := Compare(oldF, newF, CompareOptions{OldLabels: []string{"nope"}}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestCompareOneSidedBenchmarks(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "gone": 500}})
	newF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "added": 700}})
	res, err := Compare(oldF, newF, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("one-sided benchmarks counted as regressions: %+v", res.Deltas)
	}
	seen := map[string]Delta{}
	for _, d := range res.Deltas {
		seen[d.Name] = d
	}
	if !seen["gone"].OnlyOld || !seen["added"].OnlyNew {
		t.Fatalf("one-sided flags wrong: %+v", res.Deltas)
	}
}

func TestInflateAndRoundTrip(t *testing.T) {
	f := mkFile(map[string]map[string]int64{"r": {"A": 1000}})
	slow := f.Inflate(1.25)
	if got := slow.Runs["r"].Benchmarks["A"].NsPerOp; got != 1250 {
		t.Fatalf("inflated ns = %d, want 1250", got)
	}
	if f.Runs["r"].Benchmarks["A"].NsPerOp != 1000 {
		t.Fatal("Inflate mutated the original")
	}
	res, err := Compare(f, slow, CompareOptions{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 1 {
		t.Fatalf("inflated copy not flagged: %+v", res.Deltas)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs["r"].Benchmarks["A"] != f.Runs["r"].Benchmarks["A"] {
		t.Fatalf("round trip lost data: %+v", got.Runs["r"])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
