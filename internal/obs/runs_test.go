package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRunRegistryFoldsLifecycle(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	costs := []float64{10, 5, 2.5, 1.25}
	for i, c := range costs {
		rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: i, Cost: c, TimeNS: int64(i + 1)})
	}
	rr.Emit(Event{Type: EventHealth, Trace: "s1", Iter: 3, Msg: "stall"})
	rr.Emit(Event{Type: EventCheckpoint, Trace: "s1", Iter: 3, N: 7})

	st, tail, ok := rr.Run("s1")
	if !ok {
		t.Fatal("run s1 missing")
	}
	if st.Phase != PhaseRunning || st.Iter != 3 {
		t.Fatalf("phase=%s iter=%d, want running/3", st.Phase, st.Iter)
	}
	if st.FirstCost != 10 || st.Cost != 1.25 || st.BestCost != 1.25 || st.BestIter != 3 {
		t.Fatalf("costs: first=%g cur=%g best=%g@%d", st.FirstCost, st.Cost, st.BestCost, st.BestIter)
	}
	// The incremental slope must equal the batch least-squares of
	// ln(cost): exact halving each step → slope = -ln 2.
	if want := -math.Log(2); math.Abs(st.Slope-want) > 1e-12 {
		t.Fatalf("slope = %g, want %g", st.Slope, want)
	}
	if st.Health.Events != 1 || st.Health.LastReason != "stall" || st.Health.LastIter != 3 {
		t.Fatalf("health = %+v", st.Health)
	}
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	if len(tail) != 4 || tail[0].Cost != 10 || tail[3].Cost != 1.25 {
		t.Fatalf("tail = %+v", tail)
	}

	// The optimize span finishes the run; evaluate spans don't.
	rr.Emit(Event{Type: EventSpan, Trace: "s1", Name: "evaluate", Engine: "gpu", DurNS: 5})
	if st, _, _ := rr.Run("s1"); st.Phase != PhaseRunning {
		t.Fatalf("evaluate span finished the run: %s", st.Phase)
	}
	rr.Emit(Event{Type: EventSpan, Trace: "s1", Name: "optimize.levelset", Engine: "gpu", DurNS: 1000})
	st, _, _ = rr.Run("s1")
	if st.Phase != PhaseDone || st.DurNS != 1000 || st.Engine != "gpu" {
		t.Fatalf("after optimize span: phase=%s dur=%d engine=%s", st.Phase, st.DurNS, st.Engine)
	}
}

func TestRunRegistrySlopeMatchesBatch(t *testing.T) {
	// Mixed series with non-finite and non-positive costs: the
	// incremental accumulator must skip them but advance the index,
	// exactly like analyze's batch computation.
	costs := []float64{9, 4, math.NaN(), 3, -1, math.Inf(1), 2, 1.5}
	var a SlopeAccum
	for _, c := range costs {
		a.Observe(c)
	}
	var n, sumX, sumY, sumXX, sumXY float64
	for i, c := range costs {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			continue
		}
		x, y := float64(i), math.Log(c)
		n++
		sumX += x
		sumY += y
		sumXX += x * x
		sumXY += x * y
	}
	want := (n*sumXY - sumX*sumY) / (n*sumXX - sumX*sumX)
	if got := a.Slope(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("incremental slope %g != batch %g", got, want)
	}
}

func TestRunRegistryCancelledAndLevels(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: 3})
	rr.Emit(Event{Type: EventLevelSwitch, Trace: "s1", Iter: 1, OldN: 64, N: 128})
	rr.Emit(Event{Type: EventCancelled, Trace: "s1", Iter: 1, Msg: "context canceled"})
	st, _, _ := rr.Run("s1")
	if st.Level != 128 {
		t.Fatalf("level = %d, want 128", st.Level)
	}
	if st.Phase != PhaseCancelled || !st.Cancelled || st.CancelledIter != 1 {
		t.Fatalf("cancel fold: %+v", st)
	}
	// A late span must not flip a cancelled run back to done.
	rr.Emit(Event{Type: EventSpan, Trace: "s1", Name: "optimize.levelset", DurNS: 10})
	if st, _, _ := rr.Run("s1"); st.Phase != PhaseCancelled {
		t.Fatalf("span overrode cancelled: %s", st.Phase)
	}
}

func TestRunRegistryTiledFolding(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	job := "s1"
	rr.Emit(Event{Type: EventTileStart, Trace: job, Tile: 1, Pass: 0})
	rr.Emit(Event{Type: EventTileStart, Trace: job, Tile: 2, Pass: 0})
	rr.Emit(Event{Type: EventIteration, Trace: "s1.t1", Iter: 0, Cost: 2})
	rr.Emit(Event{Type: EventIteration, Trace: "s1.t2", Iter: 0, Cost: 4})
	rr.Emit(Event{Type: EventTileDone, Trace: job, Tile: 1, Pass: 0, Iter: 3, Hit: true, DurNS: 100})
	rr.Emit(Event{Type: EventTileDone, Trace: job, Tile: 2, Pass: 0, Iter: 3, Hit: false, DurNS: 120})
	rr.Emit(Event{Type: EventStitchPass, Trace: job, Pass: 1, N: 2, Seam: 0.25, Hit: false})

	st, _, ok := rr.Run(job)
	if !ok || st.Tiles == nil {
		t.Fatalf("job state missing tiles: %+v", st)
	}
	tp := st.Tiles
	if tp.Started != 2 || tp.Done != 2 || tp.Converged != 1 {
		t.Fatalf("tiles = %+v", tp)
	}
	if tp.Pass != 1 || tp.Seam != 0.25 || tp.SeamConverged {
		t.Fatalf("stitch = %+v", tp)
	}
	if len(st.Children) != 2 || st.Children[0] != "s1.t1" || st.Children[1] != "s1.t2" {
		t.Fatalf("children = %v", st.Children)
	}
	child, _, ok := rr.Run("s1.t1")
	if !ok || child.Parent != job {
		t.Fatalf("child parent = %q (ok=%v), want %q", child.Parent, ok, job)
	}

	// The job's terminal span cascades to its tile sub-runs (tiles have
	// no optimize span of their own).
	rr.Emit(Event{Type: EventSpan, Trace: job, Name: "optimize.tiled", Engine: "gpu", DurNS: 500})
	if st, _, _ := rr.Run(job); st.Phase != PhaseDone {
		t.Fatalf("job phase = %s after span, want done", st.Phase)
	}
	for _, id := range []string{"s1.t1", "s1.t2"} {
		if st, _, _ := rr.Run(id); st.Phase != PhaseDone {
			t.Fatalf("child %s phase = %s, want done (cascade)", id, st.Phase)
		}
	}
}

func TestRunRegistryFinishedRetention(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	// One finished run past the limit evicts the oldest, s1.
	for i := 1; i <= MaxFinishedRuns+1; i++ {
		id := fmt.Sprintf("s%d", i)
		rr.Emit(Event{Type: EventIteration, Trace: id, Iter: 0, Cost: 1})
		rr.Emit(Event{Type: EventSpan, Trace: id, Name: "optimize.levelset", DurNS: 1})
	}
	if _, _, ok := rr.Run("s1"); ok {
		t.Fatal("oldest finished run s1 not evicted")
	}
	for _, id := range []string{"s2", fmt.Sprintf("s%d", MaxFinishedRuns+1)} {
		if _, _, ok := rr.Run(id); !ok {
			t.Fatalf("recent finished run %s evicted", id)
		}
	}
	// The tail ring keeps the last runTailPoints iterations.
	for i := 0; i < runTailPoints+6; i++ {
		rr.Emit(Event{Type: EventIteration, Trace: "live", Iter: i, Cost: 1})
	}
	_, tail, _ := rr.Run("live")
	if len(tail) != runTailPoints || tail[0].Iter != 6 || tail[len(tail)-1].Iter != runTailPoints+5 {
		t.Fatalf("tail holds %d points, iters %d..%d; want %d points, iters 6..%d",
			len(tail), tail[0].Iter, tail[len(tail)-1].Iter, runTailPoints, runTailPoints+5)
	}
}

func TestRunRegistryIgnoresRuntimeEvents(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	rr.Emit(Event{Type: EventPlanCache, Name: "plan1d", Hit: true})
	rr.Emit(Event{Type: EventPool, Name: "field.lease", Hit: false})
	rr.Emit(Event{Type: EventProgress, Msg: "warmup"})
	rr.Emit(Event{Type: EventIteration, Iter: 0, Cost: 1}) // no trace id
	if runs := rr.Runs(); len(runs) != 0 {
		t.Fatalf("runtime events created runs: %+v", runs)
	}
}

func TestRunStateJSONNonFiniteSafe(t *testing.T) {
	rr := NewRunRegistry(NewRegistry())
	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: math.NaN()})
	rr.Emit(Event{Type: EventStitchPass, Trace: "s1", Pass: 1, N: 1, Seam: math.Inf(1)})
	st, tail, _ := rr.Run("s1")
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("RunState with NaN cost failed to marshal: %v", err)
	}
	if !strings.Contains(string(b), `"cost":"NaN"`) || !strings.Contains(string(b), `"seam":"+Inf"`) {
		t.Fatalf("non-finite fields not stringified: %s", b)
	}
	if _, err := json.Marshal(tail); err != nil {
		t.Fatalf("tail with NaN cost failed to marshal: %v", err)
	}
}

// --- HTTP endpoints ---

func liveHandler(t *testing.T) (http.Handler, *RunRegistry, *Bus) {
	t.Helper()
	reg := NewRegistry()
	rr := NewRunRegistry(reg)
	bus := NewBus(reg)
	return Handler(reg, rr, bus, nil), rr, bus
}

func TestHTTPRunsEndpoints(t *testing.T) {
	h, rr, _ := liveHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: 2, TimeNS: 10})
	rr.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 1, Cost: 1, TimeNS: 20})

	var list struct{ Runs []RunState }
	getJSON(t, srv.URL+"/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != "s1" || list.Runs[0].Iter != 1 {
		t.Fatalf("/runs = %+v", list.Runs)
	}

	var detail struct {
		Run        RunState
		Iterations []RunIterPoint
	}
	getJSON(t, srv.URL+"/runs/s1", &detail)
	if detail.Run.Cost != 1 || len(detail.Iterations) != 2 {
		t.Fatalf("/runs/s1 = %+v", detail)
	}

	if resp, err := http.Get(srv.URL + "/runs/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/runs/nope: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	var hz struct {
		Status     string  `json:"status"`
		Goroutines int     `json:"goroutines"`
		Uptime     float64 `json:"uptime_s"`
	}
	getJSON(t, srv.URL+"/healthz", &hz)
	if hz.Status != "ok" || hz.Goroutines <= 0 {
		t.Fatalf("/healthz = %+v", hz)
	}
}

func TestHTTPRunsDisabled(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg, nil, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/runs with nil registry: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/runs/s1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("SSE with nil bus: %d", resp.StatusCode)
	}
}

// TestHTTPSSEStream drives the live stream end to end: subscribe over
// HTTP, emit events on the bus, assert the matching-run events (and
// only those, honoring the ?types= filter) arrive as SSE frames.
func TestHTTPSSEStream(t *testing.T) {
	h, _, bus := liveHandler(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/runs/s1/events?types=iteration,health", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := make(chan sseFrame, 16)
	go readSSE(resp.Body, frames)

	if f := <-frames; f.event != "hello" || !strings.Contains(f.data, `"run":"s1"`) {
		t.Fatalf("first frame = %+v, want hello", f)
	}

	// Wait for the subscriber to attach before emitting.
	deadline := time.Now().Add(2 * time.Second)
	for bus.subsGauge.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	bus.Emit(Event{Type: EventIteration, Trace: "s2", Iter: 7, Cost: 3})  // other run: filtered
	bus.Emit(Event{Type: EventSpan, Trace: "s1", Name: "evaluate"})       // type-filtered
	bus.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 4, Cost: 2})  // delivered
	bus.Emit(Event{Type: EventHealth, Trace: "s1.t2", Iter: 5, Msg: "x"}) // tile sub-run: delivered

	f := <-frames
	if f.event != "iteration" || !strings.Contains(f.data, `"iter":4`) {
		t.Fatalf("frame = %+v, want s1 iteration 4", f)
	}
	f = <-frames
	if f.event != "health" || !strings.Contains(f.data, `"trace":"s1.t2"`) {
		t.Fatalf("frame = %+v, want s1.t2 health", f)
	}
	select {
	case f := <-frames:
		t.Fatalf("unexpected extra frame: %+v", f)
	case <-time.After(50 * time.Millisecond):
	}
}

type sseFrame struct{ event, data string }

// readSSE parses "event:"/"data:" frame pairs from an SSE body.
func readSSE(r io.Reader, out chan<- sseFrame) {
	sc := bufio.NewScanner(r)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case line == "" && f.event != "":
			out <- f
			f = sseFrame{}
		}
	}
	close(out)
}

// TestServerShutdownClosesSSE pins the satellite contract: Shutdown
// must end active SSE streams and return without hanging.
func TestServerShutdownClosesSSE(t *testing.T) {
	reg := NewRegistry()
	rr := NewRunRegistry(reg)
	bus := NewBus(reg)
	srv, err := Serve("127.0.0.1:0", reg, rr, bus, nil)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/runs/s1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan sseFrame, 4)
	go readSSE(resp.Body, frames)
	if f := <-frames; f.event != "hello" {
		t.Fatalf("first frame = %+v", f)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The stream must have ended (readSSE closes the channel on EOF).
	select {
	case _, open := <-frames:
		if open {
			// Drain any frame that raced the shutdown; the channel must
			// close promptly afterwards.
			for range frames {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SSE stream still open after Shutdown")
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("serve error after orderly shutdown: %v", err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
