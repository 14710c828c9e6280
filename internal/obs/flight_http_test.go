package obs

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestHTTPRunsFilters pins the /runs query surface: ?phase= keeps only
// matching runs, ?limit= caps the (stable running-first) ordering, and
// malformed values are rejected rather than ignored.
func TestHTTPRunsFilters(t *testing.T) {
	h, rr, _ := liveHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// s1 finished, s2 still running, s3 cancelled.
	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: 2})
	rr.Emit(Event{Type: EventSpan, Trace: "s1", Name: "optimize.levelset", DurNS: 10})
	rr.Emit(Event{Type: EventIteration, Trace: "s2", Iter: 0, Cost: 3})
	rr.Emit(Event{Type: EventIteration, Trace: "s3", Iter: 0, Cost: 4})
	rr.Emit(Event{Type: EventCancelled, Trace: "s3", Iter: 0, Msg: "context canceled"})

	get := func(query string) []RunState {
		t.Helper()
		var list struct{ Runs []RunState }
		getJSON(t, srv.URL+"/runs"+query, &list)
		return list.Runs
	}

	if runs := get(""); len(runs) != 3 || runs[0].ID != "s2" {
		t.Fatalf("/runs = %+v, want 3 runs with the running one first", runs)
	}
	if runs := get("?phase=running"); len(runs) != 1 || runs[0].ID != "s2" {
		t.Fatalf("?phase=running = %+v", runs)
	}
	if runs := get("?phase=done"); len(runs) != 1 || runs[0].ID != "s1" {
		t.Fatalf("?phase=done = %+v", runs)
	}
	if runs := get("?phase=cancelled"); len(runs) != 1 || runs[0].ID != "s3" {
		t.Fatalf("?phase=cancelled = %+v", runs)
	}
	if runs := get("?limit=2"); len(runs) != 2 || runs[0].ID != "s2" {
		t.Fatalf("?limit=2 = %+v", runs)
	}
	if runs := get("?phase=done&limit=0"); len(runs) != 0 {
		t.Fatalf("?limit=0 = %+v, want empty", runs)
	}

	for _, bad := range []string{"?phase=exploded", "?limit=-1", "?limit=abc"} {
		resp, err := http.Get(srv.URL + "/runs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /runs%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// stubDumper records Capture calls for the dump-endpoint test.
type stubDumper struct {
	runID, reason string
	err           error
}

func (d *stubDumper) Capture(runID, reason string) (string, error) {
	d.runID, d.reason = runID, reason
	if d.err != nil {
		return "", d.err
	}
	return "/tmp/bundles/" + runID, nil
}

// TestHTTPDumpEndpoint pins POST /runs/{id}/dump: 503 without a
// recorder, 404 for unknown runs, reason pass-through, and error
// propagation from the capture engine.
func TestHTTPDumpEndpoint(t *testing.T) {
	reg := NewRegistry()
	rr := NewRunRegistry(reg)
	dumper := &stubDumper{}
	srv := httptest.NewServer(Handler(reg, rr, NewBus(reg), dumper))
	defer srv.Close()
	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: 2})

	post := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := post("/runs/s1/dump?reason=" + url.QueryEscape("operator poke"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump: status %d body %s", resp.StatusCode, body)
	}
	if dumper.runID != "s1" || dumper.reason != "operator poke" {
		t.Fatalf("capture called with %q/%q", dumper.runID, dumper.reason)
	}
	if !strings.Contains(body, "/tmp/bundles/s1") {
		t.Fatalf("dump response %q missing bundle path", body)
	}

	if resp, _ := post("/runs/s1/dump"); resp.StatusCode != http.StatusOK || dumper.reason != "dump" {
		t.Fatalf("default reason: status %d reason %q", resp.StatusCode, dumper.reason)
	}
	if resp, _ := post("/runs/ghost/dump"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", resp.StatusCode)
	}
	dumper.err = errors.New("disk full")
	if resp, body := post("/runs/s1/dump"); resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "disk full") {
		t.Fatalf("capture error: status %d body %q", resp.StatusCode, body)
	}

	// GET must not trigger a capture.
	resp2, err := http.Get(srv.URL + "/runs/s1/dump")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("GET on the dump endpoint succeeded")
	}

	// Without a dumper the endpoint is disabled, not missing.
	srv2 := httptest.NewServer(Handler(reg, rr, NewBus(reg), nil))
	defer srv2.Close()
	resp3, err := http.Post(srv2.URL+"/runs/s1/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil dumper: status %d, want 503", resp3.StatusCode)
	}
}

// TestServeLifecycleCleansRegistry pins the shutdown contract: Serve
// owns a runtime sampler whose gauges (and the bus's counters) must
// vanish from the registry on Shutdown, so repeated Serve/Shutdown
// cycles do not accumulate stale series.
func TestServeLifecycleCleansRegistry(t *testing.T) {
	reg := NewRegistry()
	has := func(name string) bool {
		_, ok := reg.Snapshot()[name]
		return ok
	}
	for cycle := 0; cycle < 2; cycle++ {
		bus := NewBus(reg)
		srv, err := Serve("127.0.0.1:0", reg, NewRunRegistry(reg), bus, nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if !has("runtime.goroutines") {
			t.Fatalf("cycle %d: runtime sampler gauges missing while serving", cycle)
		}
		if !has("obs.bus.events") {
			t.Fatalf("cycle %d: bus counters missing while serving", cycle)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
		for _, name := range []string{"runtime.goroutines", "runtime.heap_alloc", "obs.bus.events", "obs.bus.dropped", "obs.bus.subscribers"} {
			if has(name) {
				t.Fatalf("cycle %d: %s still registered after shutdown", cycle, name)
			}
		}
	}
}
