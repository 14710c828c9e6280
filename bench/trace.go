package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lsopc"
)

// tracer is the traced pass's in-memory recorder: bench spans around
// each job and public call, and every program event, which it stamps on
// arrival because the program's sinks leave TimeNS unset. Only the
// client goroutine opens and closes bench spans; Emit may be called from
// any goroutine.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	events []stamped
	spans  []span
	open   []int // indexes of open bench spans, innermost last
	trace  string
	jobs   int
}

// stamped is one program event with its arrival time.
type stamped struct {
	at int64 // ns since the tracer started
	ev lsopc.TraceEvent
}

// span is one interval of the traced pass. Bench spans wrap jobs and
// public calls; program spans are built from events. Every span of one
// job shares the job's trace id; Run, set on program spans only, is the
// program's own trace id for the run that emitted the event.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run,omitempty"`
	Key    string `json:"key,omitempty"` // job spans: the job's key
	Pass   int    `json:"pass,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func newTracer() *tracer { return &tracer{t0: time.Now(), trace: "setup"} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// Emit implements lsopc.TraceSink.
func (t *tracer) Emit(e lsopc.TraceEvent) {
	at := t.now()
	t.mu.Lock()
	t.events = append(t.events, stamped{at, e})
	t.mu.Unlock()
}

// clearEvents drops the events recorded so far (the warm-up's).
func (t *tracer) clearEvents() {
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}

// begin opens a bench span; a "job" span starts a new trace id.
func (t *tracer) begin(name, key string) {
	if name == "job" {
		t.jobs++
		t.trace = "j" + strconv.Itoa(t.jobs)
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Key: key, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open bench span.
func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// containSlack absorbs the gap between a program clock reading and the
// arrival stamp of the event that carries it.
const containSlack = 20 * int64(time.Microsecond)

// spanTree returns every span: the bench spans, plus the program spans
// built from the events that arrived inside each public call, each
// attached to the smallest span of its run that encloses it.
func (t *tracer) spanTree() []span {
	t.mu.Lock()
	events := append([]stamped(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	all := append([]span(nil), t.spans...)
	for _, call := range t.spans {
		if !strings.HasPrefix(call.Name, "lsopc.") {
			continue
		}
		lo := sort.Search(len(events), func(i int) bool { return events[i].at >= call.Start })
		hi := sort.Search(len(events), func(i int) bool { return events[i].at > call.End })
		prog := programSpans(events[lo:hi], call.Trace)
		for i := range prog {
			prog[i].ID = len(all) + i + 1
			prog[i].Parent = call.ID
			best := int64(-1)
			for j, p := range prog {
				// A parent is never shorter than its child, and of two
				// equal spans only the later can be the child.
				if j == i || p.dur() < prog[i].dur() || (p.dur() == prog[i].dur() && j > i) {
					continue
				}
				if !encloses(p, prog[i]) || (best >= 0 && p.dur() >= best) {
					continue
				}
				best = p.dur()
				prog[i].Parent = len(all) + j + 1
			}
		}
		all = append(all, prog...)
	}
	return all
}

// encloses reports whether p can be s's parent: p covers s in time and
// belongs to the same run or to the run that spawned it (a tiled job
// "s3" spawns tile runs "s3.t1", "s3.t2", …). Spans of one name are
// siblings, never nested: a run's three corners overlap in time.
func encloses(p, s span) bool {
	if p.Name == s.Name || (p.Run != s.Run && !strings.HasPrefix(s.Run, p.Run+".")) {
		return false
	}
	return p.Start-containSlack <= s.Start && s.End <= p.End+containSlack
}

// programSpans turns the events of one public call into spans:
//   - span, corner, level_switch and stitch_pass events carry their own
//     duration and arrive at its end;
//   - a tile runs from its tile_start to its tile_done;
//   - an iteration runs from the previous iteration event of its run to
//     its own, because the event's dur_ns stops before the evolve and
//     reinit steps. The first iteration of a run, level or tile pass
//     falls back to the event's own duration.
func programSpans(events []stamped, trace string) []span {
	var out []span
	add := func(name, run string, start, end int64, pass int) {
		out = append(out, span{Trace: trace, Name: name, Run: run, Start: start, End: end, Pass: pass})
	}
	type tileKey struct {
		run  string
		pass int
	}
	iterFrom := map[string]int64{}
	tileFrom := map[tileKey]int64{}
	for _, se := range events {
		e, at := se.ev, se.at
		switch e.Type {
		case lsopc.EventSpan:
			add(e.Name, e.Trace, at-e.DurNS, at, 0)
		case lsopc.EventCorner:
			add("corner."+e.Name, e.Trace, at-e.DurNS, at, 0)
		case lsopc.EventLevelSwitch:
			add("level_switch", e.Trace, at-e.DurNS, at, 0)
			delete(iterFrom, e.Trace)
		case lsopc.EventStitchPass:
			add("stitch_pass", e.Trace, at-e.DurNS, at, e.Pass)
		case lsopc.EventTileStart:
			run := e.Trace + ".t" + strconv.Itoa(e.Tile)
			tileFrom[tileKey{run, e.Pass}] = at
			delete(iterFrom, run)
		case lsopc.EventTileDone:
			run := e.Trace + ".t" + strconv.Itoa(e.Tile)
			if from, ok := tileFrom[tileKey{run, e.Pass}]; ok {
				add("tile", run, from, at, e.Pass)
			}
		case lsopc.EventIteration:
			from, ok := iterFrom[e.Trace]
			if !ok {
				from = at - e.DurNS
			}
			add("iteration", e.Trace, from, at, 0)
			iterFrom[e.Trace] = at
		}
	}
	return out
}

// spanStats is the self-time report of one span name.
type spanStats struct {
	N          int     `json:"n"`
	TotalMS    float64 `json:"total_ms"`
	SelfMS     float64 `json:"self_ms"`
	ResidualMS float64 `json:"residual_ms"` // Σ (span − Σ its children)
}

// selfTimes computes, per span name, the total time, the self time
// (each span minus the part of it its children cover, never negative)
// and the residual (each span minus the sum of its children, negative
// where children overlap).
func selfTimes(spans []span) (map[string]*spanStats, map[int]int64) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	stats := map[string]*spanStats{}
	self := map[int]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		var sum int64
		for _, k := range kids {
			sum += k.dur()
		}
		self[s.ID] = s.dur() - covered(s, kids)
		st := stats[s.Name]
		if st == nil {
			st = &spanStats{}
			stats[s.Name] = st
		}
		st.N++
		st.TotalMS += float64(s.dur()) / 1e6
		st.SelfMS += float64(self[s.ID]) / 1e6
		st.ResidualMS += float64(s.dur()-sum) / 1e6
	}
	return stats, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// printSelfTimes writes the self-time report, largest total first.
func printSelfTimes(w io.Writer, workload string, stats map[string]*spanStats) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].TotalMS > stats[names[j]].TotalMS })
	fmt.Fprintf(w, "%-15s %-26s %7s %12s %12s %14s\n", workload, "span", "n", "total_ms", "self_ms", "residual_ms")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "%-15s %-26s %7d %12.1f %12.1f %14.1f\n", workload, n, s.N, s.TotalMS, s.SelfMS, s.ResidualMS)
	}
}

// writeTrace writes dir/<workload>.spans.jsonl and merges this
// workload's entry into dir/layers.json.
func writeTrace(dir, workload string, spans []span, self map[int]int64, stats map[string]*spanStats, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type entry struct {
		Spans   map[string]*spanStats `json:"spans"`
		Metrics map[string]float64    `json:"metrics"`
	}
	path := filepath.Join(dir, "layers.json")
	all := map[string]entry{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = entry{stats, layers}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
