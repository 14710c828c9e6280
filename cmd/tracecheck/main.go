// Command tracecheck validates a structured JSONL event trace produced
// by the -tracefile flag of cmd/lsopc and cmd/tables (or any obs.JSONLSink
// stream). It fails with a non-zero exit when a line is not valid JSON,
// an event carries no type, or the sink-assigned sequence numbers are
// not strictly increasing — the integrity invariants concurrent
// sessions rely on. Session-scoped events (iterations, corners, spans,
// health, level/tile/stitch, cancelled, checkpoint) must carry their
// run id — the trace field live consumers key on — and each run's
// iteration numbers must be strictly increasing, the invariant the SSE
// stream and run registry rely on. Tiled-run events carry structural
// invariants of their own: tile_start/tile_done must name a tile
// ordinal ≥ 1, and stitch_pass must name a pass ≥ 1 over ≥ 1
// re-optimized tiles. Cancellation events must carry their cause
// message, and checkpoint events must report ≥ 1 captured state fields.
// Event kinds outside the taxonomy are counted and reported (a schema
// drift signal) instead of silently passing; -strict turns them into a
// failure. With -require it additionally asserts that given event types
// are present, so CI can prove a run actually exercised the
// instrumented layers.
//
// Usage:
//
//	tracecheck run.jsonl
//	tracecheck -require iteration,corner,plan_cache,pool run.jsonl
//	tracecheck -strict run.jsonl               # unknown event kinds fail
//	lsopc -case B1 -tracefile /dev/stdout ... | tracecheck -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"lsopc/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated event types that must appear at least once")
	strict := flag.Bool("strict", false, "fail when the trace contains event kinds outside the known taxonomy")
	quiet := flag.Bool("q", false, "suppress the per-type summary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require types] [-strict] <trace.jsonl | ->")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	counts, unknown, err := check(in)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		types := make([]string, 0, len(counts))
		for t := range counts {
			types = append(types, t)
		}
		sort.Strings(types)
		total := 0
		for _, t := range types {
			marker := ""
			if unknown[t] > 0 {
				marker = "  (UNKNOWN kind)"
			}
			fmt.Printf("%-12s %d%s\n", t, counts[t], marker)
			total += counts[t]
		}
		fmt.Printf("%-12s %d\n", "total", total)
	}
	if len(unknown) > 0 {
		kinds := make([]string, 0, len(unknown))
		n := 0
		for t, c := range unknown {
			kinds = append(kinds, t)
			n += c
		}
		sort.Strings(kinds)
		msg := fmt.Errorf("%d event(s) of unknown kind(s) %s — taxonomy drift? (obs event constants vs this trace)",
			n, strings.Join(kinds, ", "))
		if *strict {
			fatal(msg)
		}
		fmt.Fprintln(os.Stderr, "tracecheck: warning:", msg)
	}
	if *require != "" {
		var missing []string
		for _, t := range strings.Split(*require, ",") {
			t = strings.TrimSpace(t)
			if t != "" && counts[t] == 0 {
				missing = append(missing, t)
			}
		}
		if len(missing) > 0 {
			fatal(fmt.Errorf("required event types missing from trace: %s", strings.Join(missing, ", ")))
		}
	}
}

// check validates every line of the stream and tallies events per type;
// the second map tallies the subset whose kind is outside the taxonomy
// (obs.KnownEvent).
func check(in io.Reader) (counts, unknown map[string]int, err error) {
	counts = map[string]int{}
	unknown = map[string]int{}
	// lastIter tracks the most recent iteration number per run id to
	// enforce per-run monotonicity (stitch re-runs and resumed runs use
	// iteration offsets precisely to preserve it).
	lastIter := map[string]int{}
	lastSeq := int64(0)
	err = obs.ReadEvents(in, func(e obs.Event) error {
		if !obs.KnownEvent(e.Type) {
			unknown[e.Type]++
		} else if !obs.RuntimeScoped(e.Type) && e.Trace == "" {
			return fmt.Errorf("%s event without a run id (trace)", e.Type)
		}
		if e.Seq != 0 {
			if e.Seq <= lastSeq {
				return fmt.Errorf("seq %d not strictly increasing after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
		switch e.Type {
		case obs.EventIteration:
			if last, seen := lastIter[e.Trace]; seen && e.Iter <= last {
				return fmt.Errorf("run %s iteration %d not increasing after %d", e.Trace, e.Iter, last)
			}
			lastIter[e.Trace] = e.Iter
		case obs.EventTileStart, obs.EventTileDone:
			if e.Tile < 1 {
				return fmt.Errorf("%s without a tile ordinal (tile=%d)", e.Type, e.Tile)
			}
			if e.Pass < 0 {
				return fmt.Errorf("%s with negative pass %d", e.Type, e.Pass)
			}
		case obs.EventStitchPass:
			if e.Pass < 1 {
				return fmt.Errorf("stitch_pass with pass %d, want ≥ 1", e.Pass)
			}
			if e.N < 1 {
				return fmt.Errorf("stitch_pass re-optimizing %d tiles, want ≥ 1", e.N)
			}
		case obs.EventCancelled:
			if e.Msg == "" {
				return fmt.Errorf("cancelled event without a cause message")
			}
		case obs.EventCheckpoint:
			if e.N < 1 {
				return fmt.Errorf("checkpoint event capturing %d state fields, want ≥ 1", e.N)
			}
		case obs.EventCapture:
			if e.Msg == "" {
				return fmt.Errorf("capture event without a trigger reason")
			}
			if e.Name == "" {
				return fmt.Errorf("capture event without a bundle directory")
			}
			if e.N < 1 {
				return fmt.Errorf("capture event listing %d bundle files, want ≥ 1", e.N)
			}
		}
		counts[e.Type]++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return counts, unknown, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
