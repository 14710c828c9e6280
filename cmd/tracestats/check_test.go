package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckCountsPerType(t *testing.T) {
	trace := strings.Join([]string{
		`{"type":"iteration","seq":1,"trace":"s1","iter":0,"cost":1}`,
		`{"type":"iteration","seq":2,"trace":"s1","iter":1,"cost":0.5}`,
		`{"type":"corner","seq":3,"trace":"s1","name":"forward","corner":"nominal"}`,
		`{"type":"plan_cache","seq":4,"name":"plan1d","hit":true}`,
	}, "\n") + "\n"
	counts, unknown, err := check(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"iteration": 2, "corner": 1, "plan_cache": 1}
	for typ, n := range want {
		if counts[typ] != n {
			t.Fatalf("counts[%s] = %d, want %d (all: %v)", typ, counts[typ], n, counts)
		}
	}
	if len(unknown) != 0 {
		t.Fatalf("unknown = %v, want none", unknown)
	}
}

func TestCheckTiledEvents(t *testing.T) {
	good := strings.Join([]string{
		`{"type":"tile_start","seq":1,"trace":"s1","tile":1,"pass":0}`,
		`{"type":"tile_done","seq":2,"trace":"s1","tile":1,"pass":0,"dur_ns":100}`,
		`{"type":"stitch_pass","seq":3,"trace":"s1","pass":1,"n":2,"seam":0.03}`,
	}, "\n") + "\n"
	counts, _, err := check(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if counts["tile_start"] != 1 || counts["tile_done"] != 1 || counts["stitch_pass"] != 1 {
		t.Fatalf("counts = %v", counts)
	}

	bad := map[string]string{
		"tile_start without tile": `{"type":"tile_start","seq":1,"trace":"s1","pass":0}` + "\n",
		"tile_done tile 0":        `{"type":"tile_done","seq":1,"trace":"s1","tile":0}` + "\n",
		"stitch_pass without n":   `{"type":"stitch_pass","seq":1,"trace":"s1","pass":1}` + "\n",
		"stitch_pass pass 0":      `{"type":"stitch_pass","seq":1,"trace":"s1","pass":0,"n":2}` + "\n",
	}
	for name, trace := range bad {
		if _, _, err := check(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRejectsEmptyTrace(t *testing.T) {
	if _, _, err := check(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestCheckRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"invalid JSON":   "{not json}\n",
		"missing type":   `{"seq":1,"iter":0}` + "\n",
		"non-increasing": `{"type":"span","seq":5,"trace":"s1","name":"optimize.levelset"}` + "\n" + `{"type":"span","seq":5,"trace":"s1","name":"evaluate"}` + "\n",
		"decreasing seq": `{"type":"span","seq":5,"trace":"s1","name":"optimize.levelset"}` + "\n" + `{"type":"span","seq":2,"trace":"s1","name":"evaluate"}` + "\n",
		"empty mid-line": `{"type":"span","seq":1,"trace":"s1"}` + "\n\n" + `{"type":"span","seq":2,"trace":"s1"}` + "\n",
	}
	for name, trace := range cases {
		if _, _, err := check(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckRequiresRunIDs(t *testing.T) {
	// Session-scoped kinds must carry a trace id…
	sessionScoped := map[string]string{
		"iteration":  `{"type":"iteration","seq":1,"iter":0,"cost":1}` + "\n",
		"span":       `{"type":"span","seq":1,"name":"optimize.levelset"}` + "\n",
		"health":     `{"type":"health","seq":1,"iter":3,"msg":"stall"}` + "\n",
		"tile_start": `{"type":"tile_start","seq":1,"tile":1}` + "\n",
		"cancelled":  `{"type":"cancelled","seq":1,"iter":2,"msg":"context canceled"}` + "\n",
	}
	for name, trace := range sessionScoped {
		if _, _, err := check(strings.NewReader(trace)); err == nil {
			t.Errorf("%s without run id: accepted", name)
		}
	}
	// …while runtime-scoped kinds legitimately have none.
	runtime := strings.Join([]string{
		`{"type":"plan_cache","seq":1,"name":"plan1d","hit":true}`,
		`{"type":"pool","seq":2,"name":"field.lease","hit":false}`,
		`{"type":"progress","seq":3,"msg":"warmup"}`,
	}, "\n") + "\n"
	if _, _, err := check(strings.NewReader(runtime)); err != nil {
		t.Fatalf("runtime-scoped events rejected: %v", err)
	}
}

// TestCheckHealthReasonCodes: a health event carries one of the four
// watchdog reason codes; any other code (or none) is schema drift.
func TestCheckHealthReasonCodes(t *testing.T) {
	for _, reason := range []string{"non_finite_cost", "non_finite_gradient", "stall", "divergence"} {
		trace := `{"type":"health","seq":1,"trace":"s1","iter":3,"msg":"` + reason + `"}` + "\n"
		if _, _, err := check(strings.NewReader(trace)); err != nil {
			t.Errorf("%s: %v", reason, err)
		}
	}
	for _, reason := range []string{"", "cost_nan", "STALLED", "diverged"} {
		trace := `{"type":"health","seq":1,"trace":"s1","iter":3,"msg":"` + reason + `"}` + "\n"
		if _, _, err := check(strings.NewReader(trace)); err == nil {
			t.Errorf("health reason %q: accepted", reason)
		}
	}
}

func TestCheckIterationMonotonicPerRun(t *testing.T) {
	// Interleaved runs are fine as long as each run's own iteration
	// numbers increase (the concurrent-session layout of a real trace).
	good := strings.Join([]string{
		`{"type":"iteration","seq":1,"trace":"s1","iter":0,"cost":1}`,
		`{"type":"iteration","seq":2,"trace":"s2","iter":0,"cost":1}`,
		`{"type":"iteration","seq":3,"trace":"s1","iter":1,"cost":0.9}`,
		`{"type":"iteration","seq":4,"trace":"s2","iter":1,"cost":0.8}`,
	}, "\n") + "\n"
	if _, _, err := check(strings.NewReader(good)); err != nil {
		t.Fatal(err)
	}

	bad := map[string]string{
		"repeated iter": strings.Join([]string{
			`{"type":"iteration","seq":1,"trace":"s1","iter":2,"cost":1}`,
			`{"type":"iteration","seq":2,"trace":"s1","iter":2,"cost":0.9}`,
		}, "\n") + "\n",
		"decreasing iter": strings.Join([]string{
			`{"type":"iteration","seq":1,"trace":"s1","iter":5,"cost":1}`,
			`{"type":"iteration","seq":2,"trace":"s1","iter":3,"cost":0.9}`,
		}, "\n") + "\n",
	}
	for name, trace := range bad {
		if _, _, err := check(strings.NewReader(trace)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckReportsUnknownKinds(t *testing.T) {
	trace := strings.Join([]string{
		`{"type":"iteration","seq":1,"trace":"s1","iter":0,"cost":1}`,
		`{"type":"flux_capacitor","seq":2}`,
		`{"type":"flux_capacitor","seq":3}`,
	}, "\n") + "\n"
	counts, unknown, err := check(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if unknown["flux_capacitor"] != 2 {
		t.Fatalf("unknown = %v, want flux_capacitor:2", unknown)
	}
	if counts["flux_capacitor"] != 2 || counts["iteration"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestCheckTraceStrictAndRequire pins the -check mode's two gates: an
// unknown kind only warns unless -strict, and every -require type must
// be present.
func TestCheckTraceStrictAndRequire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	trace := `{"type":"iteration","seq":1,"trace":"s1","iter":0,"cost":1}` + "\n" + `{"type":"flux_capacitor","seq":2}` + "\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(path, false, "iteration"); err != nil {
		t.Fatalf("lenient check with a present required type: %v", err)
	}
	if err := checkTrace(path, true, ""); err == nil || !strings.Contains(err.Error(), "flux_capacitor") {
		t.Fatalf("strict check = %v, want the unknown kind named", err)
	}
	if err := checkTrace(path, false, "iteration, corner"); err == nil || !strings.Contains(err.Error(), "corner") {
		t.Fatalf("require corner = %v, want it reported missing", err)
	}
	if err := checkTrace(filepath.Join(t.TempDir(), "missing.jsonl"), false, ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
