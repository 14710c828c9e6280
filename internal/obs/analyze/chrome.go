package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"lsopc/internal/obs"
)

// Chrome Trace Event export: converts a JSONL trace into the Catapult
// trace-event JSON format, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing, giving runs a zoomable wall-clock timeline — one
// track per session / tile sub-run, spans nested by duration.
//
// Mapping:
//
//   - span, iteration, corner, level_switch, tile_done and stitch_pass
//     events (the kinds carrying DurNS) become "X" complete slices on
//     their run's track; the sink stamps TimeNS at emission, i.e. at
//     the end of the operation, so a slice starts at TimeNS−DurNS.
//   - tile_done slices land on the tile sub-run's "<job>.t<n>" track —
//     one timeline row per tile worker lane — while stitch_pass stays
//     on the parent job's track.
//   - health, cancelled and checkpoint events become "i" instant marks.
//   - plan_cache, pool and progress events are omitted (tens of
//     thousands of sub-microsecond records that swamp the timeline);
//     WriteChromeTrace reports how many were skipped.
//
// Timestamps are rebased to the trace's first event: Chrome trace ts is
// float64 microseconds, and raw unix nanos would lose precision there.

// chromeEvent is one Catapult trace record (fields in spec order).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePID is the single synthetic process every track lives under.
const chromePID = 1

// safeArg keeps non-finite floats JSON-encodable, mirroring the trace
// schema's string convention.
func safeArg(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprint(v)
	}
	return v
}

// WriteChromeTrace reads a JSONL event stream and writes the Chrome
// trace JSON to w, returning the number of events skipped as
// timeline-irrelevant (plan_cache/pool/progress and unknown kinds).
func WriteChromeTrace(w io.Writer, in io.Reader) (skipped int, err error) {
	var events []obs.Event
	var baseNS int64
	err = obs.ReadEvents(in, func(e obs.Event) error {
		if e.TimeNS != 0 && (baseNS == 0 || e.TimeNS < baseNS) {
			baseNS = e.TimeNS
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Track (= Chrome thread) ids in first-appearance order, which is
	// deterministic for a given input file.
	tids := map[string]int{}
	var trackNames []string
	tid := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		trackNames = append(trackNames, track)
		return id
	}

	var out []chromeEvent
	ts := func(ns int64) float64 { return float64(ns-baseNS) / 1e3 }
	slice := func(track string, e obs.Event, name string, args map[string]any) {
		start := e.TimeNS - e.DurNS
		if start < baseNS {
			start = baseNS
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "X", TS: ts(start), Dur: float64(e.DurNS) / 1e3,
			PID: chromePID, TID: tid(track), Cat: e.Type, Args: args,
		})
	}
	instant := func(track string, e obs.Event, name string, args map[string]any) {
		out = append(out, chromeEvent{
			Name: name, Ph: "i", TS: ts(e.TimeNS),
			PID: chromePID, TID: tid(track), Cat: e.Type, S: "t", Args: args,
		})
	}
	track := func(e obs.Event) string {
		if e.Trace == "" {
			return "runtime"
		}
		return e.Trace
	}

	for _, e := range events {
		switch e.Type {
		case obs.EventSpan:
			slice(track(e), e, e.Name, map[string]any{"engine": e.Engine})
		case obs.EventIteration:
			slice(track(e), e, fmt.Sprintf("iter %d", e.Iter), map[string]any{
				"iter": e.Iter, "cost": safeArg(e.Cost), "grad_norm": safeArg(e.GradNorm),
			})
		case obs.EventCorner:
			slice(track(e), e, e.Name+"/"+e.Corner, map[string]any{"cost": safeArg(e.Cost)})
		case obs.EventLevelSwitch:
			slice(track(e), e, fmt.Sprintf("level_switch %d→%d", e.OldN, e.N), map[string]any{
				"iter": e.Iter, "old_n": e.OldN, "n": e.N,
			})
		case obs.EventTileDone:
			// One lane per tile: the slice lands on the tile sub-run's
			// track next to that tile's own iteration slices.
			slice(childTrack(e), e, fmt.Sprintf("tile %d pass %d", e.Tile, e.Pass), map[string]any{
				"tile": e.Tile, "pass": e.Pass, "iters": e.Iter, "converged": e.Hit,
			})
		case obs.EventStitchPass:
			slice(track(e), e, fmt.Sprintf("stitch pass %d", e.Pass), map[string]any{
				"pass": e.Pass, "tiles": e.N, "seam": safeArg(e.Seam), "converged": e.Hit,
			})
		case obs.EventTileStart:
			instant(childTrack(e), e, fmt.Sprintf("tile %d start (pass %d)", e.Tile, e.Pass), nil)
		case obs.EventHealth:
			instant(track(e), e, "health: "+e.Msg, map[string]any{
				"iter": e.Iter, "cost": safeArg(e.Cost),
			})
		case obs.EventCancelled:
			instant(track(e), e, "cancelled", map[string]any{"iter": e.Iter, "cause": e.Msg})
		case obs.EventCheckpoint:
			instant(track(e), e, "checkpoint", map[string]any{"iter": e.Iter})
		default:
			skipped++
		}
	}

	// Metadata names the process and one thread per track so Perfetto
	// labels the lanes; emitted first, in tid order.
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: chromePID,
		Args: map[string]any{"name": "lsopc trace"},
	}}
	for i, name := range trackNames {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: i + 1,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return skipped, enc.Encode(chromeTrace{
		TraceEvents:     append(meta, out...),
		DisplayTimeUnit: "ms",
	})
}

// childTrack places a parent-emitted tile event on the tile sub-run's
// track.
func childTrack(e obs.Event) string {
	if e.Trace == "" {
		return "runtime"
	}
	return obs.TileRunID(e.Trace, e.Tile)
}
