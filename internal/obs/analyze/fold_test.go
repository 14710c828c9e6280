package analyze

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lsopc/internal/obs"
)

// FuzzFoldLiveMatchesOffline is the differential check between the two
// views of a run: any JSONL byte stream must leave Parse without a
// panic, and for every stream Parse accepts, each session's folded
// state must equal the live RunRegistry's snapshot of the same run
// after the registry is fed the same decoded events (with retention
// above the run count, so nothing is evicted). States compare as their
// /runs JSON, which keeps NaN costs comparable.
func FuzzFoldLiveMatchesOffline(f *testing.F) {
	if b, err := os.ReadFile(filepath.Join("testdata", "chrome_fixture.jsonl")); err == nil {
		f.Add(b)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range []obs.Event{
		{Type: obs.EventPlanCache, Name: "plan1d", Hit: true},
		{Type: obs.EventIteration, Trace: "s1", Iter: 5, Cost: math.Inf(-1)},
		{Type: obs.EventIteration, Trace: "s1", Iter: 6, Cost: 3},
		{Type: obs.EventLevelSwitch, Trace: "s1", Iter: 7, OldN: 64, N: 128, DurNS: 9},
		{Type: obs.EventIteration, Trace: "s1", Iter: 7, Cost: math.NaN()},
		{Type: obs.EventHealth, Trace: "s1", Iter: 7, Msg: obs.HealthNonFiniteCost},
		{Type: obs.EventCheckpoint, Trace: "s1", Iter: 7, N: 3},
		{Type: obs.EventCancelled, Trace: "s1", Iter: 7, Msg: "context canceled"},
		{Type: obs.EventTileStart, Trace: "job", Tile: 2},
		{Type: obs.EventTileStart, Trace: "job", Tile: 1},
		{Type: obs.EventIteration, Trace: "job.t1", Iter: 0, Cost: 2},
		{Type: obs.EventTileDone, Trace: "job", Tile: 1, Hit: true, DurNS: 4},
		{Type: obs.EventStitchPass, Trace: "job", Pass: 1, N: 1, Seam: math.NaN()},
		{Type: obs.EventCapture, Trace: "job", Name: "dir", N: 1, Msg: "dump"},
		{Type: obs.EventSpan, Trace: "job", Name: "optimize.tiled", Engine: "gpu", DurNS: 7},
	} {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"type":"span","trace":"a.t3","name":"optimize"}` + "\n" + `{"type":"tile_start","trace":"a","tile":3,"time_ns":5}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var events []obs.Event
		if err := obs.ReadEvents(bytes.NewReader(data), func(e obs.Event) error {
			events = append(events, e)
			return nil
		}); err != nil {
			t.Fatalf("Parse accepted a stream the event reader rejects: %v", err)
		}
		if len(run.Sessions) > obs.MaxFinishedRuns {
			return // the live registry evicts finished runs past its limit
		}
		rr := obs.NewRunRegistry(obs.NewRegistry())
		for _, e := range events {
			rr.Emit(e)
		}
		live := rr.Runs()
		if len(live) != len(run.Sessions) {
			t.Fatalf("live view has %d runs, offline %d sessions", len(live), len(run.Sessions))
		}
		for _, st := range live {
			s := run.Sessions[st.ID]
			if s == nil {
				t.Fatalf("run %q is live but has no offline session", st.ID)
			}
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(s.Run)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run %q:\noffline %s\nlive    %s", st.ID, got, want)
			}
		}
	})
}
