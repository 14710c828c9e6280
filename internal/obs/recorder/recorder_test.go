package recorder

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
	"lsopc/internal/solve"
)

// quiet returns a recorder with the background sampler and the CPU
// profile slice disabled, so tests stay fast and deterministic.
func quiet(t testing.TB, cfg Config) *Recorder {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	cfg.SnapshotEvery = -1
	cfg.CPUProfile = -1
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

func TestRootOf(t *testing.T) {
	cases := map[string]string{
		"s1":       "s1",
		"s1.t3":    "s1",
		"s1.t":     "s1.t",
		"s1.tile":  "s1.tile",
		"s1.t12x":  "s1.t12x",
		"job.t100": "job",
		".t1":      ".t1",
	}
	for in, want := range cases {
		if got := rootOf(in); got != want {
			t.Errorf("rootOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRingConservation drives concurrent emitters over several runs
// (run under -race in `make race`): every event must be counted, tile
// sub-runs must fold into their parent ring, and each ring must retain
// exactly its capacity's worth of the newest events.
func TestRingConservation(t *testing.T) {
	reg := obs.NewRegistry()
	r := quiet(t, Config{Registry: reg})
	const (
		emitters = 4
		perEmit  = 200 // 800 events per run overflow the 512-slot ring
	)
	runs := []string{"a", "b", "b.t1", "b.t2", "c"}
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				for _, id := range runs {
					r.Emit(obs.Event{Type: obs.EventIteration, Trace: id, Iter: w*perEmit + i})
				}
				// Events with no run id are dropped, not counted.
				r.Emit(obs.Event{Type: obs.EventPlanCache})
			}
		}(w)
	}
	wg.Wait()

	total := emitters * perEmit * len(runs)
	if got := reg.Snapshot()["obs.recorder.events"]; got != float64(total) {
		t.Fatalf("events counter %v, want %d (conservation)", got, total)
	}
	if got := reg.Snapshot()["obs.recorder.runs"]; got != 3 {
		t.Fatalf("runs gauge %v, want 3 (b.t* fold into b)", got)
	}
	// Ring "a" saw emitters*perEmit events through a ringSize-slot
	// ring: the tail is full and every retained event belongs to the
	// run.
	tail := r.Tail("a")
	if len(tail) != ringSize {
		t.Fatalf("tail of a holds %d events, want ring capacity %d", len(tail), ringSize)
	}
	for _, e := range tail {
		if e.Trace != "a" {
			t.Fatalf("ring a retained an event for %q", e.Trace)
		}
	}
	// The b ring is shared with its tile sub-runs.
	for _, e := range r.Tail("b") {
		if root := rootOf(e.Trace); root != "b" {
			t.Fatalf("ring b retained an event for %q", e.Trace)
		}
	}
	if got := r.Tail("b.t1"); len(got) != ringSize {
		t.Fatalf("tile id lookup returned %d events, want the parent ring's %d", len(got), ringSize)
	}
}

// TestRingOrder pins FIFO eviction: a single emitter's ring tail must
// be the newest events, oldest first.
func TestRingOrder(t *testing.T) {
	r := quiet(t, Config{})
	const extra = 12 // events beyond the ring's capacity
	for i := 0; i < ringSize+extra; i++ {
		r.Emit(obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: i})
	}
	tail := r.Tail("s1")
	if len(tail) != ringSize {
		t.Fatalf("tail holds %d, want %d", len(tail), ringSize)
	}
	for i, e := range tail {
		if want := extra + i; e.Iter != want {
			t.Fatalf("tail[%d].Iter = %d, want %d", i, e.Iter, want)
		}
	}
}

// TestMaxRunsEviction pins the retention bound: beyond maxRuns rings,
// the oldest-started run is forgotten.
func TestMaxRunsEviction(t *testing.T) {
	reg := obs.NewRegistry()
	r := quiet(t, Config{Registry: reg})
	for i := 1; i <= maxRuns+1; i++ {
		r.Emit(obs.Event{Type: obs.EventIteration, Trace: fmt.Sprintf("r%d", i)})
	}
	if got := r.Tail("r1"); got != nil {
		t.Fatalf("oldest run still has %d ring events, want eviction", len(got))
	}
	if r.Tail("r2") == nil || r.Tail(fmt.Sprintf("r%d", maxRuns+1)) == nil {
		t.Fatal("newest runs were evicted")
	}
	if got := reg.Snapshot()["obs.recorder.runs"]; got != maxRuns {
		t.Fatalf("runs gauge %v, want %d", got, maxRuns)
	}
}

// TestCaptureOnce hammers CaptureAnomaly from concurrent triggers (run
// under -race): exactly one bundle is written, every caller gets its
// path, and the extras count as skips.
func TestCaptureOnce(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var sink obs.CollectorSink
	r := quiet(t, Config{Dir: dir, Registry: reg, Sink: &sink})
	for i := 0; i < 10; i++ {
		r.Emit(obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: i})
	}

	const callers = 8
	dirs := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed triggers, including via a tile sub-run id: still one
			// bundle for the root run.
			if i%2 == 0 {
				dirs[i], errs[i] = r.Capture("s1", "dump")
			} else {
				dirs[i], errs[i] = r.CaptureAnomaly(Anomaly{RunID: "s1.t2", Reason: "non_finite_cost"})
			}
		}(i)
	}
	wg.Wait()
	for i := range dirs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if dirs[i] != dirs[0] {
			t.Fatalf("caller %d got bundle %q, caller 0 got %q", i, dirs[i], dirs[0])
		}
	}
	snap := reg.Snapshot()
	if got := snap["obs.recorder.captures"]; got != 1 {
		t.Fatalf("captures counter %v, want 1", got)
	}
	if got := snap["obs.recorder.capture_skipped"]; got != callers-1 {
		t.Fatalf("skip counter %v, want %d", got, callers-1)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d bundle directories written, want 1", len(entries))
	}
	// Exactly one typed capture event was emitted.
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Type != obs.EventCapture {
		t.Fatalf("capture events = %+v, want exactly one", evs)
	}
	if evs[0].Trace != "s1" || evs[0].Msg == "" || evs[0].Name != dirs[0] || evs[0].N < 1 {
		t.Fatalf("capture event fields = %+v", evs[0])
	}
	if got, ok := r.Captured("s1.t7"); !ok || got != dirs[0] {
		t.Fatalf("Captured = %q,%v want %q,true", got, ok, dirs[0])
	}
}

// TestBundleContents opens a written bundle and checks the manifest
// agrees with the files on disk, including the resumable checkpoint
// round-tripping through the solve codec.
func TestBundleContents(t *testing.T) {
	dir := t.TempDir()
	r := quiet(t, Config{Dir: dir})
	for i := 0; i < ringSize+14; i++ {
		r.Emit(obs.Event{Type: obs.EventIteration, Trace: "s9", Iter: i, Cost: 1.0 / float64(i+1)})
	}
	psi := grid.NewField(4, 4)
	psi.Data[5] = 2.5
	cp := &solve.Checkpoint{
		Method: "levelset", Factor: 1, Iter: 7, Offset: 3,
		State: map[string]*grid.Field{"psi": psi},
	}
	bdir, err := r.CaptureAnomaly(Anomaly{
		RunID: "s9", Reason: "stall", Tile: 2, Window: "0,0-1024,1024", Checkpoint: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := Open(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if man.RunID != "s9" || man.Trigger != "stall" || man.Tile != 2 {
		t.Fatalf("manifest identity = %+v", man)
	}
	if man.Events != ringSize {
		t.Fatalf("manifest events %d, want the ring's %d", man.Events, ringSize)
	}
	if man.CheckpointIter != 10 {
		t.Fatalf("manifest checkpoint iter %d, want 10", man.CheckpointIter)
	}
	for _, f := range []string{ManifestFile, EventsFile, RuntimeFile, GoroutinesFile, HeapFile, RunFile, CheckpointFile, MetricsFile} {
		if f == RunFile {
			continue // no run registry configured in this test
		}
		found := false
		for _, got := range man.Files {
			if got == f {
				found = true
			}
		}
		if !found {
			t.Fatalf("manifest lists %v, missing %s", man.Files, f)
		}
	}
	got, err := solve.LoadCheckpoint(filepath.Join(bdir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 7 || got.State["psi"].Data[5] != 2.5 {
		t.Fatalf("checkpoint round-trip = iter %d psi %v", got.Iter, got.State["psi"].Data[5])
	}

	// Corrupting the bundle must fail validation.
	if err := os.Remove(filepath.Join(bdir, GoroutinesFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bdir); err == nil {
		t.Fatal("Open validated a bundle with a missing listed file")
	}
}

// TestCaptureRequiresDir pins the configuration error path.
func TestCaptureRequiresDir(t *testing.T) {
	r := quiet(t, Config{})
	if _, err := r.Capture("s1", "dump"); err == nil {
		t.Fatal("capture without a bundle directory succeeded")
	}
	if _, err := quiet(t, Config{Dir: t.TempDir()}).Capture("", "dump"); err == nil {
		t.Fatal("capture without a run id succeeded")
	}
}

// TestDumpLongReason posts a dump with a 300-byte reason through the
// HTTP handler: the bundle directory name must stay under the file
// system's name limit, and the manifest keeps the full reason.
func TestDumpLongReason(t *testing.T) {
	dir := t.TempDir()
	r := quiet(t, Config{Dir: dir})
	reg := obs.NewRegistry()
	runs := obs.NewRunRegistry(reg)
	e := obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: 0, Cost: 1}
	r.Emit(e)
	runs.Emit(e)
	srv := httptest.NewServer(obs.Handler(reg, runs, obs.NewBus(reg), r))
	defer srv.Close()

	reason := strings.Repeat("operator poke ", 22)[:300]
	resp, err := http.Post(srv.URL+"/runs/s1/dump?reason="+url.QueryEscape(reason), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump: status %d body %s", resp.StatusCode, body)
	}
	bdir, ok := r.Captured("s1")
	if !ok {
		t.Fatal("no bundle captured")
	}
	if n := len(filepath.Base(bdir)); n > 255 {
		t.Fatalf("bundle directory name is %d bytes", n)
	}
	man, err := Open(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Trigger != reason {
		t.Fatalf("manifest trigger %q, want the full reason", man.Trigger)
	}
}

// TestEmitSteadyStateDoesNotAllocate pins the hot-path cost contract:
// once a run's ring exists, recording an event must not touch the heap
// (the same budget as the disabled-sink and zero-subscriber bus paths).
func TestEmitSteadyStateDoesNotAllocate(t *testing.T) {
	r := quiet(t, Config{})
	e := obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: 1, Cost: 0.5}
	r.Emit(e) // first event allocates the ring
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(e) }); allocs != 0 {
		t.Fatalf("steady-state Emit allocated %.1f times per call, want 0", allocs)
	}
	// Tile sub-run ids stay allocation-free too (rootOf sub-slices).
	te := obs.Event{Type: obs.EventIteration, Trace: "s1.t3", Iter: 1}
	r.Emit(te)
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(te) }); allocs != 0 {
		t.Fatalf("tile-id Emit allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkRecorderEmit gates the idle-recorder hot path: run with
// -benchmem, allocs/op must stay 0.
func BenchmarkRecorderEmit(b *testing.B) {
	r := New(Config{SnapshotEvery: -1, Registry: obs.NewRegistry()})
	defer r.Close()
	e := obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: 1, Cost: 0.5}
	r.Emit(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}

// FuzzOpenBundle feeds arbitrary bytes to Open as a bundle's
// manifest.json. Open must either reject the bundle or return a manifest
// with its identity fields set whose every file entry names a file that
// is in the bundle directory.
func FuzzOpenBundle(f *testing.F) {
	r := quiet(f, Config{Dir: f.TempDir()})
	r.Emit(obs.Event{Type: obs.EventIteration, Trace: "s1", Iter: 1, Cost: 0.5})
	bdir, err := r.Capture("s1", "dump")
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(bdir, ManifestFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	f.Add([]byte(`{"schema":1,"run_id":"s1","trigger":"dump","files":["manifest.json"]}`))
	f.Add([]byte(`{"schema":1,"run_id":"s1","trigger":"dump","files":["manifest.json",".."]}`))
	f.Add([]byte(`{"schema":1,"run_id":"s1","trigger":"dump","files":["."]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		man, err := Open(dir)
		if err != nil {
			return
		}
		if man.RunID == "" || man.Trigger == "" {
			t.Fatalf("accepted manifest without identity: %+v", man)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		present := map[string]bool{}
		for _, e := range entries {
			present[e.Name()] = true
		}
		for _, name := range man.Files {
			if filepath.Base(name) != name || !present[name] {
				t.Fatalf("accepted file entry %q, not a file in the bundle directory", name)
			}
		}
	})
}
