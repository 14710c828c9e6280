package lsopc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lsopc/internal/layouts"
	"lsopc/internal/obs/analyze"
)

// liveRunState is the subset of the /runs JSON this test asserts on.
type liveRunState struct {
	ID       string   `json:"id"`
	Parent   string   `json:"parent"`
	Phase    string   `json:"phase"`
	Iter     int      `json:"iter"`
	Children []string `json:"children"`
	Tiles    *struct {
		Started       int     `json:"started"`
		Done          int     `json:"done"`
		Converged     int     `json:"converged"`
		Pass          int     `json:"pass"`
		Seam          float64 `json:"seam"`
		SeamConverged bool    `json:"seam_converged"`
	} `json:"tiles"`
}

type liveSSEFrame struct {
	event string
	data  map[string]any
}

// readSSEFrame parses one `event:`/`data:` frame off the stream.
func readSSEFrame(r *bufio.Reader) (liveSSEFrame, error) {
	var f liveSSEFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "" && f.event != "":
			return f, nil
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data); err != nil {
				return f, fmt.Errorf("bad data line %q: %w", line, err)
			}
		}
	}
}

func liveGetJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestLiveServerStreamsTiledRun is the end-to-end acceptance gate of the
// live-telemetry stack: a tiled benchmark run wired through
// ServeLive().Sink() must be visible on /runs with per-tile progress
// while it is still in flight, stream its tile/stitch events over SSE
// as they happen, and land in a consistent terminal state — all over
// real HTTP, with a clean Shutdown at the end.
func TestLiveServerStreamsTiledRun(t *testing.T) {
	live, err := ServeLive("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	shut := false
	defer func() {
		if !shut {
			live.Shutdown(context.Background())
		}
	}()
	base := "http://" + live.Addr()

	// The tiled run is the fresh pipeline's first traced job: "s1".
	p, err := NewCustomPipeline(64, 16, 4, GPUEngine(), WithTraceSink(live.Sink()))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	opts := DefaultLevelSetOptions()
	opts.MaxIter = 4
	tileOpts := TileOptions{
		HaloNM:       256,
		Core:         opts,
		StitchPasses: 1,
		StitchIters:  2,
	}

	// Attach the SSE client before the run starts so the hello frame
	// proves the subscription is live before any event is emitted.
	sseCtx, sseCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer sseCancel()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet,
		base+"/runs/s1/events?types=tile_start,tile_done,stitch_pass", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	sse := bufio.NewReader(resp.Body)
	if f, err := readSSEFrame(sse); err != nil || f.event != "hello" {
		t.Fatalf("first frame = %+v (err %v), want hello", f, err)
	}

	runDone := make(chan error, 1)
	var tiled *TiledResult
	go func() {
		r, err := p.OptimizeTiled(Benchmark("B1"), tileOpts)
		tiled = r
		runDone <- err
	}()

	// The first tile event must arrive while the run is still going —
	// that is the "live" in live telemetry. Right after it, the /runs
	// view must already show the job in flight with tile progress.
	first, err := readSSEFrame(sse)
	if err != nil {
		t.Fatalf("waiting for first tile event: %v", err)
	}
	if first.event != "tile_start" {
		t.Fatalf("first run event = %q, want tile_start", first.event)
	}
	if first.data["trace"] != "s1" {
		t.Fatalf("tile_start trace = %v, want s1", first.data["trace"])
	}
	var mid struct {
		Run liveRunState `json:"run"`
	}
	liveGetJSON(t, base+"/runs/s1", &mid)
	if mid.Run.Phase != "running" {
		t.Errorf("mid-run phase = %q, want running", mid.Run.Phase)
	}
	if mid.Run.Tiles == nil || mid.Run.Tiles.Started < 1 {
		t.Fatalf("mid-run tiles = %+v, want started >= 1", mid.Run.Tiles)
	}

	// Drain the stream until the run returns, tallying event kinds.
	counts := map[string]int{"tile_start": 1}
	sseDone := make(chan error, 1)
	go func() {
		for {
			f, err := readSSEFrame(sse)
			if err != nil {
				sseDone <- err
				return
			}
			counts[f.event]++
			if f.event == "stitch_pass" {
				sseDone <- nil
				return
			}
		}
	}()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := <-sseDone; err != nil {
		t.Fatalf("SSE stream broke before the stitch pass: %v", err)
	}
	nTiles := len(tiled.Grid.Tiles)
	if nTiles != 16 {
		t.Fatalf("decomposition has %d tiles, want 16", nTiles)
	}
	if counts["tile_start"] < nTiles || counts["tile_done"] < nTiles {
		t.Errorf("SSE saw %d tile_start / %d tile_done, want >= %d each (drops should not occur at this rate)",
			counts["tile_start"], counts["tile_done"], nTiles)
	}
	if counts["stitch_pass"] < 1 {
		t.Errorf("SSE saw no stitch_pass")
	}

	// Terminal state: the job is done with every tile accounted for and
	// linked to its sub-runs, which carry their own iteration series.
	var fin struct {
		Run        liveRunState `json:"run"`
		Iterations []struct {
			Iter int `json:"iter"`
		} `json:"iterations"`
	}
	liveGetJSON(t, base+"/runs/s1", &fin)
	if fin.Run.Phase != "done" {
		t.Errorf("final phase = %q, want done", fin.Run.Phase)
	}
	if fin.Run.Tiles == nil || fin.Run.Tiles.Started < nTiles || fin.Run.Tiles.Done < nTiles {
		t.Errorf("final tiles = %+v, want >= %d started and done", fin.Run.Tiles, nTiles)
	}
	if len(fin.Run.Children) != nTiles {
		t.Errorf("children = %d, want %d", len(fin.Run.Children), nTiles)
	}
	var child struct {
		Run        liveRunState `json:"run"`
		Iterations []struct {
			Iter int `json:"iter"`
		} `json:"iterations"`
	}
	liveGetJSON(t, base+"/runs/s1.t1", &child)
	if child.Run.Parent != "s1" || child.Run.Phase != "done" {
		t.Errorf("child = %+v, want parent s1, phase done", child.Run)
	}
	if len(child.Iterations) == 0 {
		t.Errorf("child iteration series is empty")
	}
	var list struct {
		Runs []liveRunState `json:"runs"`
	}
	liveGetJSON(t, base+"/runs", &list)
	found := false
	for _, r := range list.Runs {
		if r.ID == "s1" {
			found = true
		}
	}
	if !found {
		t.Errorf("/runs does not list s1 (got %d runs)", len(list.Runs))
	}
	var hz struct {
		Status string `json:"status"`
	}
	liveGetJSON(t, base+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Errorf("healthz status = %q", hz.Status)
	}

	// Graceful shutdown closes the (still-open) SSE stream and reports
	// no serve error.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := live.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	shut = true
	if err := live.Err(); err != nil {
		t.Fatalf("Err after shutdown: %v", err)
	}
}

// TestLiveRunsMatchOfflineFold is the acceptance gate of the shared
// trace fold: four real runs — one clip, a coarse-to-fine run, a 2×2
// tiled chip and a tiled job aborted by a poisoned tile — are traced
// through TeeTraceSink(JSONL, ServeLive().Sink()). For every run id the
// state analyze.Parse folds from the JSONL file (what tracestats -json
// reports) must equal the /runs/{id} snapshot byte for byte,
// timestamps included. Every live run must also carry real
// timestamps: StartNS > 0, UpdatedNS ≥ StartNS, and an iteration tail
// whose time_ns are positive and non-decreasing.
func TestLiveRunsMatchOfflineFold(t *testing.T) {
	chip, err := layouts.Chip(2, 2, []string{"B1", "B4"})
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(t *testing.T, p *Pipeline, err error, opts LevelSetOptions) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		if _, err := p.OptimizeLevelSet(Benchmark("B1"), opts); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 4
	multires := opts
	multires.MultiResFactor = 2
	cases := []struct {
		name string
		run  func(t *testing.T, sink TraceSink)
	}{
		{"single", func(t *testing.T, sink TraceSink) {
			p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(sink))
			optimize(t, p, err, opts)
		}},
		{"multires", func(t *testing.T, sink TraceSink) {
			p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(sink))
			optimize(t, p, err, multires)
		}},
		{"tiled", func(t *testing.T, sink TraceSink) {
			p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			if _, err := p.OptimizeTiled(chip, TileOptions{HaloNM: 256, Core: opts}); err != nil {
				t.Fatal(err)
			}
		}},
		{"poisoned", func(t *testing.T, sink TraceSink) {
			// As in TestFlightRecorderTiledAbortBundle, except that the
			// recorder's capture event goes to both views.
			rec := NewFlightRecorder(FlightRecorderConfig{
				Dir: t.TempDir(), CPUProfile: 10 * time.Millisecond, Sink: sink,
			})
			defer rec.Close()
			p, err := NewCustomPipeline(64, 16, 4, GPUEngine(),
				WithTraceSink(TeeTraceSink(sink, rec)),
				WithFlightRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()
			popts := DefaultLevelSetOptions()
			popts.MaxIter = 20
			hp := DefaultHealthPolicy()
			popts.Health = &hp
			_, err = p.OptimizeTiled(Benchmark("B1"), TileOptions{HaloNM: 256, Core: popts, PoisonTile: 3})
			var terr *TileAbortError
			if !errors.As(err, &terr) {
				t.Fatalf("poisoned run returned %v, want a *TileAbortError", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live, err := ServeLive("127.0.0.1:0", "")
			if err != nil {
				t.Fatal(err)
			}
			defer live.Shutdown(context.Background())
			base := "http://" + live.Addr()
			var file bytes.Buffer
			jsonl := NewJSONLTraceSink(&file)
			c.run(t, TeeTraceSink(jsonl, live.Sink()))
			if err := FlushTrace(jsonl); err != nil {
				t.Fatal(err)
			}
			offline, err := analyze.Parse(&file, analyze.DefaultThresholds())
			if err != nil {
				t.Fatal(err)
			}

			var list struct {
				Runs []struct {
					ID string `json:"id"`
				} `json:"runs"`
			}
			liveGetJSON(t, base+"/runs", &list)
			if len(list.Runs) == 0 || len(list.Runs) != len(offline.Sessions) {
				t.Fatalf("/runs lists %d runs, the trace file folds %d", len(list.Runs), len(offline.Sessions))
			}
			for _, r := range list.Runs {
				var detail struct {
					Run        json.RawMessage `json:"run"`
					Iterations []struct {
						TimeNS int64 `json:"time_ns"`
					} `json:"iterations"`
				}
				liveGetJSON(t, base+"/runs/"+r.ID, &detail)
				s := offline.Sessions[r.ID]
				if s == nil {
					t.Fatalf("run %s is live but missing from the trace file's fold", r.ID)
				}
				var want bytes.Buffer
				if err := json.Compact(&want, detail.Run); err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(s.Run)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("run %s:\noffline %s\nlive    %s", r.ID, got, want.Bytes())
				}
				if s.Run.StartNS <= 0 || s.Run.UpdatedNS < s.Run.StartNS {
					t.Errorf("run %s: start_ns %d, updated_ns %d", r.ID, s.Run.StartNS, s.Run.UpdatedNS)
				}
				var last int64
				for i, p := range detail.Iterations {
					if p.TimeNS <= 0 || p.TimeNS < last {
						t.Fatalf("run %s: tail point %d has time_ns %d after %d", r.ID, i, p.TimeNS, last)
					}
					last = p.TimeNS
				}
			}
		})
	}
}
