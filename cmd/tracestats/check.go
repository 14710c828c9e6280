package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lsopc/internal/obs"
)

// checkTrace is the -check mode: it validates one trace (path or "-"
// for stdin) with check, prints the per-type event counts, and fails on
// a broken invariant, on an event kind outside the taxonomy when strict
// is set (it only warns otherwise), or when a type named in require
// (comma-separated) never appears.
func checkTrace(path string, strict bool, require string) error {
	in, err := openTrace(path)
	if err != nil {
		return err
	}
	defer in.Close()
	counts, unknown, err := check(in)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	total := 0
	for _, t := range sortedKeys(counts) {
		marker := ""
		if unknown[t] > 0 {
			marker = "  (UNKNOWN kind)"
		}
		fmt.Printf("%-12s %d%s\n", t, counts[t], marker)
		total += counts[t]
	}
	fmt.Printf("%-12s %d\n", "total", total)
	if len(unknown) > 0 {
		n := 0
		for _, c := range unknown {
			n += c
		}
		msg := fmt.Errorf("%d event(s) of unknown kind(s) %s — taxonomy drift? (obs event constants vs this trace)",
			n, strings.Join(sortedKeys(unknown), ", "))
		if strict {
			return msg
		}
		fmt.Fprintln(os.Stderr, "tracestats: warning:", msg)
	}
	var missing []string
	for _, t := range strings.Split(require, ",") {
		if t = strings.TrimSpace(t); t != "" && counts[t] == 0 {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required event types missing from trace: %s", strings.Join(missing, ", "))
	}
	return nil
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
		case obs.EventHealth:
			if !obs.HealthReason(e.Msg) {
				return fmt.Errorf("health event with reason %q, not a watchdog reason code", e.Msg)
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
