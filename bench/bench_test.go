package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lsopc/internal/obs"
)

// TestMain lets the test binary stand in for the command: the parent
// re-runs its own executable with -child first for each workload
// process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runToy runs the command at toy size and returns its result lines and
// its human-readable output.
func runToy(t *testing.T, args ...string) ([]outcome, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-toy", "-seconds", "0"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var outs []outcome
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		var out outcome
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		outs = append(outs, out)
	}
	if len(outs) != len(workloads) {
		t.Fatalf("%d result lines, want one per workload (%d)", len(outs), len(workloads))
	}
	return outs, stderr.String()
}

// checkMetrics asserts that each workload reported exactly the named
// metrics, each with its unit, a finite value and one printed line.
func checkMetrics(t *testing.T, outs []outcome, human string, want map[string]string) {
	t.Helper()
	for i, out := range outs {
		name := workloads[i].name
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, out.Correct, out.Attempted, out.Failed)
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", name, len(out.Metrics), len(want))
		}
		for metric, unit := range want {
			v, ok := out.Metrics[metric]
			if !ok || v.Unit != unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s: got %+v (present %v), want unit %s and a finite value", name, metric, v, ok, unit)
			}
			prefix := name + " " + metric
			lines := 0
			for _, l := range strings.Split(human, "\n") {
				if f := strings.Fields(l); len(f) >= 4 && f[0]+" "+f[1] == prefix && f[3] == unit {
					lines++
				}
			}
			if lines != 1 {
				t.Errorf("%s %s printed %d times, want once", name, metric, lines)
			}
		}
	}
}

func TestEveryEndToEndMetricPrintedOnce(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, defined)
	}
	want := map[string]string{}
	for _, m := range f.EndToEnd {
		want[m.Name] = m.Unit
	}
	outs, human := runToy(t)
	checkMetrics(t, outs, human, want)
}

func TestTracedPassWritesSpans(t *testing.T) {
	f := readBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range f.PerLayer {
		want[m.Name] = m.Unit
	}
	dir := t.TempDir()
	outs, human := runToy(t, "-trace", "1", "-trace-dir", dir)
	checkMetrics(t, outs, human, want)
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, w.name+".spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		if len(lines) < 2 {
			t.Errorf("%s: %d spans", w.name, len(lines))
		}
		for _, l := range lines {
			var s struct {
				Name   string
				SelfNS int64 `json:"self_ns"`
			}
			if err := json.Unmarshal(l, &s); err != nil {
				t.Fatal(err)
			}
			if s.SelfNS < 0 {
				t.Errorf("%s: span %s has self time %d ns", w.name, s.Name, s.SelfNS)
			}
		}
	}
	var layers map[string]json.RawMessage
	b, err := os.ReadFile(filepath.Join(dir, "layers.json"))
	if err == nil {
		err = json.Unmarshal(b, &layers)
	}
	if err != nil || len(layers) != len(workloads) {
		t.Errorf("layers.json: %d workloads, err %v", len(layers), err)
	}
}

func TestPlanDependsOnlyOnSeed(t *testing.T) {
	a, b := genPlan(1, fullScale), genPlan(1, fullScale)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 gave two different job lists")
	}
	if reflect.DeepEqual(a, genPlan(2, fullScale)) {
		t.Error("seeds 1 and 2 gave the same job lists")
	}
	for _, w := range workloads {
		if len(a[w.name]) == 0 {
			t.Errorf("%s has no jobs", w.name)
		}
	}
}

func TestRuntimeTraceUnsetAfterEitherPass(t *testing.T) {
	for _, trace := range []int{0, 1} {
		o := options{workload: "iccad_fast", toy: true, trace: trace, traceDir: t.TempDir()}
		if _, err := runChild(o, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		if obs.Runtime() != nil {
			t.Errorf("trace %d: runtime trace sink left installed", trace)
		}
	}
}
