// Package obs is the runtime observability layer of the repository: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) exported via expvar and a plain-text dump, a structured
// trace-sink interface emitting typed events as JSONL, and opt-in
// net/http/pprof + metrics HTTP endpoints for long-running commands.
//
// The package is stdlib-only and imports nothing else from the module,
// so every substrate (engine, fft, rt, litho, core, pixelilt) can
// depend on it without cycles. Instrumentation ships always-compiled-in
// under two cost regimes:
//
//   - Metrics (counters/histograms) are always on. An update is one or
//     two atomic adds with zero heap allocations, cheap enough for the
//     session-construction and per-FFT-batch call sites that use them.
//   - Tracing is nil-gated. Hot paths guard every event with a plain
//     `if sink != nil` (or an atomic load of the process Runtime sink),
//     so the disabled path performs no allocation and no time.Now call —
//     the alloc-regression tests enforce 0 allocs/op on the warm
//     simulate and iteration paths with no sink attached.
//
// Event emission passes the Event struct by value, so enabling a sink
// costs the sink's own work (JSON marshalling for JSONLSink) but the
// producers stay allocation-free up to the Emit call.
package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event types emitted by the instrumented layers. The Type field of
// every Event holds one of these.
const (
	// EventIteration is one optimizer iteration: cost terms, gradient
	// norm, step size (core and pixelilt emit these).
	EventIteration = "iteration"
	// EventCorner is one per-corner forward or forward+gradient
	// simulation with its wall time (litho emits these).
	EventCorner = "corner"
	// EventPlanCache is an FFT plan-cache lookup (hit or miss).
	EventPlanCache = "plan_cache"
	// EventPool is an rt pool lease (hit = served from the free list,
	// miss = fresh allocation) or release.
	EventPool = "pool"
	// EventSpan is a coarse job span: a whole optimize, evaluate or
	// process-window call with its engine and wall time.
	EventSpan = "span"
	// EventProgress is a human-readable progress line (the experiments
	// harness emits these; LineSink renders them verbatim).
	EventProgress = "progress"
	// EventHealth is a numerical-health verdict from the watchdog: a
	// NaN/Inf cost or gradient, a stalled front, or cost divergence
	// (see HealthPolicy). Msg carries the reason code.
	EventHealth = "health"
	// EventLevelSwitch is a multi-resolution level hand-off: OldN/N carry
	// the old and new grid edges, Iter the global iteration at which the
	// switch happened, and DurNS the φ interpolation + redistancing time.
	EventLevelSwitch = "level_switch"
	// EventTileStart marks a tile optimization being picked up by a
	// worker: Tile carries the 1-based tile ordinal, Pass the stitch pass
	// (0 = initial independent sweep), Name the tile's core rect.
	EventTileStart = "tile_start"
	// EventTileDone is the matching completion record: same Tile/Pass
	// plus DurNS wall time, Iter the iterations the tile ran, and Hit
	// reporting whether the tile's optimizer converged.
	EventTileDone = "tile_done"
	// EventStitchPass summarizes one halo-stitching consistency pass:
	// Pass is the 1-based pass number, N the number of tiles
	// re-optimized, Seam the worst seam-strip mask disagreement fraction
	// after blending, Hit whether the seams converged below tolerance,
	// and DurNS the pass wall time.
	EventStitchPass = "stitch_pass"
	// EventCancelled marks a run stopped cooperatively at an iteration
	// boundary: Iter is the global iteration the run yielded at, Name
	// the optimizer method, and Msg the cancellation cause.
	EventCancelled = "cancelled"
	// EventCheckpoint records a resumable checkpoint being captured at
	// the same boundary: N carries the number of serialized state
	// fields.
	EventCheckpoint = "checkpoint"
	// EventCapture records the flight recorder writing a postmortem
	// bundle for a run: Msg carries the trigger reason, Name the bundle
	// directory, and N the number of files it contains.
	EventCapture = "capture"
)

// KnownEvent reports whether kind belongs to the event taxonomy above;
// tracestats -check counts anything else as schema drift.
func KnownEvent(kind string) bool {
	switch kind {
	case EventIteration, EventCorner, EventPlanCache, EventPool, EventSpan,
		EventProgress, EventHealth, EventLevelSwitch, EventTileStart,
		EventTileDone, EventStitchPass, EventCancelled, EventCheckpoint,
		EventCapture:
		return true
	}
	return false
}

// RuntimeScoped reports whether kind is a process-level event that is
// legitimately emitted with no run id (plan-cache lookups and pool
// leases during bank/session construction, free-form progress lines).
// Such events belong to no run and never fold into run state.
func RuntimeScoped(kind string) bool {
	switch kind {
	case EventPlanCache, EventPool, EventProgress:
		return true
	}
	return false
}

// TileRunID is the trace id of tile n's sub-run of a tiled job:
// "<job>.t<n>". ParentRunID inverts it.
func TileRunID(job string, n int) string { return job + ".t" + strconv.Itoa(n) }

// ParentRunID returns the tiled job id of a tile sub-run id
// ("<job>.t<n>" → "<job>"), or "" when id names no tile sub-run.
// Allocation-free.
func ParentRunID(id string) string {
	i := strings.LastIndex(id, ".t")
	if i <= 0 || i+2 == len(id) {
		return ""
	}
	for _, c := range id[i+2:] {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return id[:i]
}

// Event is one structured trace record. It is a flat union of the
// fields used by the event types above; unused fields marshal away
// under omitempty, so each JSONL line carries only its type's payload.
// Events are passed by value to keep producers allocation-free.
type Event struct {
	Type   string `json:"type"`
	Seq    int64  `json:"seq,omitempty"`     // sink-assigned total order
	TimeNS int64  `json:"time_ns,omitempty"` // unix nanos, sink-stamped
	Trace  string `json:"trace,omitempty"`   // owning session/job id
	Name   string `json:"name,omitempty"`    // span/op name or pool kind
	Engine string `json:"engine,omitempty"`
	Corner string `json:"corner,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	N      int    `json:"n,omitempty"`     // plan length, pool elements or new grid edge
	OldN   int    `json:"old_n,omitempty"` // previous grid edge (level_switch)
	Tile   int    `json:"tile,omitempty"`  // 1-based tile ordinal (tile_start/tile_done)
	Pass   int    `json:"pass,omitempty"`  // stitch pass number (0 = initial sweep)
	Hit    bool   `json:"hit,omitempty"`   // cache/pool hit, tile converged, seams converged
	DurNS  int64  `json:"dur_ns,omitempty"`

	Seam float64 `json:"seam,omitempty"` // seam-strip mask disagreement fraction

	Cost        float64 `json:"cost,omitempty"`
	CostNominal float64 `json:"cost_nominal,omitempty"`
	CostPVB     float64 `json:"cost_pvb,omitempty"`
	GradNorm    float64 `json:"grad_norm,omitempty"`
	MaxVelocity float64 `json:"max_velocity,omitempty"`
	TimeStep    float64 `json:"time_step,omitempty"`
	LambdaPRP   float64 `json:"lambda_prp,omitempty"`

	Msg string `json:"msg,omitempty"`
}

// traceFloat marshals non-finite values as the strings "NaN", "+Inf"
// and "-Inf" instead of failing the whole line — encoding/json rejects
// NaN/Inf, and the events most worth keeping (a NaN-poisoned cost, the
// watchdog's health verdict about it) are exactly the non-finite ones.
type traceFloat float64

// MarshalJSON implements json.Marshaler.
func (f traceFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *traceFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = traceFloat(math.NaN())
		case "+Inf", "Inf":
			*f = traceFloat(math.Inf(1))
		case "-Inf":
			*f = traceFloat(math.Inf(-1))
		default:
			return fmt.Errorf("obs: invalid float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = traceFloat(v)
	return nil
}

// eventJSON mirrors Event with non-finite-safe float fields; Event's
// JSON round-trip goes through it.
type eventJSON struct {
	Type   string `json:"type"`
	Seq    int64  `json:"seq,omitempty"`
	TimeNS int64  `json:"time_ns,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name,omitempty"`
	Engine string `json:"engine,omitempty"`
	Corner string `json:"corner,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	N      int    `json:"n,omitempty"`
	OldN   int    `json:"old_n,omitempty"`
	Tile   int    `json:"tile,omitempty"`
	Pass   int    `json:"pass,omitempty"`
	Hit    bool   `json:"hit,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`

	Seam traceFloat `json:"seam,omitempty"`

	Cost        traceFloat `json:"cost,omitempty"`
	CostNominal traceFloat `json:"cost_nominal,omitempty"`
	CostPVB     traceFloat `json:"cost_pvb,omitempty"`
	GradNorm    traceFloat `json:"grad_norm,omitempty"`
	MaxVelocity traceFloat `json:"max_velocity,omitempty"`
	TimeStep    traceFloat `json:"time_step,omitempty"`
	LambdaPRP   traceFloat `json:"lambda_prp,omitempty"`

	Msg string `json:"msg,omitempty"`
}

// MarshalJSON implements json.Marshaler: one flat object per event,
// with NaN/±Inf floats rendered as strings instead of erroring.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Type: e.Type, Seq: e.Seq, TimeNS: e.TimeNS, Trace: e.Trace,
		Name: e.Name, Engine: e.Engine, Corner: e.Corner,
		Iter: e.Iter, N: e.N, OldN: e.OldN, Tile: e.Tile, Pass: e.Pass,
		Hit: e.Hit, DurNS: e.DurNS,
		Seam:        traceFloat(e.Seam),
		Cost:        traceFloat(e.Cost),
		CostNominal: traceFloat(e.CostNominal),
		CostPVB:     traceFloat(e.CostPVB),
		GradNorm:    traceFloat(e.GradNorm),
		MaxVelocity: traceFloat(e.MaxVelocity),
		TimeStep:    traceFloat(e.TimeStep),
		LambdaPRP:   traceFloat(e.LambdaPRP),
		Msg:         e.Msg,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*e = Event{
		Type: j.Type, Seq: j.Seq, TimeNS: j.TimeNS, Trace: j.Trace,
		Name: j.Name, Engine: j.Engine, Corner: j.Corner,
		Iter: j.Iter, N: j.N, OldN: j.OldN, Tile: j.Tile, Pass: j.Pass,
		Hit: j.Hit, DurNS: j.DurNS,
		Seam:        float64(j.Seam),
		Cost:        float64(j.Cost),
		CostNominal: float64(j.CostNominal),
		CostPVB:     float64(j.CostPVB),
		GradNorm:    float64(j.GradNorm),
		MaxVelocity: float64(j.MaxVelocity),
		TimeStep:    float64(j.TimeStep),
		LambdaPRP:   float64(j.LambdaPRP),
		Msg:         j.Msg,
	}
	return nil
}

// String renders the event as one human-readable line (no trailing
// newline, except progress messages which carry their own).
func (e Event) String() string {
	switch e.Type {
	case EventProgress:
		return e.Msg
	case EventIteration:
		return fmt.Sprintf("%s %s iter=%d cost=%.6g nominal=%.6g pvb=%.6g |g|=%.4g max|v|=%.4g dt=%.4g lambda=%.3f",
			e.Type, e.Trace, e.Iter, e.Cost, e.CostNominal, e.CostPVB, e.GradNorm, e.MaxVelocity, e.TimeStep, e.LambdaPRP)
	case EventCorner:
		return fmt.Sprintf("%s %s %s/%s %.3fms cost=%.6g",
			e.Type, e.Trace, e.Name, e.Corner, float64(e.DurNS)/1e6, e.Cost)
	case EventPlanCache, EventPool:
		return fmt.Sprintf("%s %s n=%d hit=%v", e.Type, e.Name, e.N, e.Hit)
	case EventSpan:
		return fmt.Sprintf("%s %s %s engine=%s %.3fms", e.Type, e.Trace, e.Name, e.Engine, float64(e.DurNS)/1e6)
	case EventHealth:
		return fmt.Sprintf("%s %s iter=%d %s cost=%.6g |g|=%.4g",
			e.Type, e.Trace, e.Iter, e.Msg, e.Cost, e.GradNorm)
	case EventLevelSwitch:
		return fmt.Sprintf("%s %s iter=%d %d->%d interp=%.3fms",
			e.Type, e.Trace, e.Iter, e.OldN, e.N, float64(e.DurNS)/1e6)
	case EventTileStart:
		return fmt.Sprintf("%s %s tile=%d pass=%d %s", e.Type, e.Trace, e.Tile, e.Pass, e.Name)
	case EventTileDone:
		return fmt.Sprintf("%s %s tile=%d pass=%d iters=%d converged=%v %.3fms",
			e.Type, e.Trace, e.Tile, e.Pass, e.Iter, e.Hit, float64(e.DurNS)/1e6)
	case EventStitchPass:
		return fmt.Sprintf("%s %s pass=%d tiles=%d seam=%.6g converged=%v %.3fms",
			e.Type, e.Trace, e.Pass, e.N, e.Seam, e.Hit, float64(e.DurNS)/1e6)
	case EventCancelled:
		return fmt.Sprintf("%s %s %s iter=%d %s", e.Type, e.Trace, e.Name, e.Iter, e.Msg)
	case EventCheckpoint:
		return fmt.Sprintf("%s %s %s iter=%d fields=%d", e.Type, e.Trace, e.Name, e.Iter, e.N)
	case EventCapture:
		return fmt.Sprintf("%s %s reason=%s bundle=%s files=%d", e.Type, e.Trace, e.Msg, e.Name, e.N)
	default:
		return fmt.Sprintf("%s %s %s", e.Type, e.Trace, e.Msg)
	}
}

// Sink receives trace events. Implementations must be safe for
// concurrent use: sessions running on separate goroutines share one
// sink, and the sink is the serialization point. Emit must not retain
// references into the event beyond the call (Event is self-contained
// value data, so copying it is enough).
//
// Sinks that buffer should also implement Flusher; Flush is invoked by
// Pipeline.Release and the command-line drivers before exit.
type Sink interface {
	Emit(e Event)
}

// Flusher is the optional flush half of the sink contract.
type Flusher interface {
	Flush() error
}

// Flush flushes s if it implements Flusher; nil and non-buffering sinks
// are no-ops.
func Flush(s Sink) error {
	if f, ok := s.(Flusher); ok && f != nil {
		return f.Flush()
	}
	return nil
}

// runtimeSink is the process-level sink for events that originate below
// any session handle: FFT plan-cache lookups and pool leases happen
// inside shared caches with no session in scope, so they report here.
// Stored behind an atomic pointer: the disabled path is one atomic load
// and a nil check.
type sinkHolder struct{ s Sink }

var runtimeSink atomic.Pointer[sinkHolder]

// SetRuntime installs (or, with nil, removes) the process-level trace
// sink that receives plan-cache and pool events. Commands set it to the
// same sink as their pipeline so one JSONL stream carries the full
// picture.
func SetRuntime(s Sink) {
	if s == nil {
		runtimeSink.Store(nil)
		return
	}
	runtimeSink.Store(&sinkHolder{s: s})
}

// Runtime returns the process-level sink, or nil when tracing is off.
func Runtime() Sink {
	if h := runtimeSink.Load(); h != nil {
		return h.s
	}
	return nil
}

// JSONLSink writes each event as one JSON object per line. A mutex
// serializes emissions, assigns a strictly increasing sequence number,
// and stamps wall time, so concurrent producers cannot interleave
// partial lines and the file is a total order of what happened. Writes
// are buffered; call Flush (Pipeline.Release does) before reading the
// underlying writer.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	seq int64
	err error
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	e.Seq = s.seq
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	b, err := json.Marshal(&e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.bw.Write(append(b, '\n')); err != nil && s.err == nil {
		s.err = err
	}
}

// Flush writes buffered lines through and reports the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ReadEvents decodes a JSONL event stream (the JSONLSink format) and
// calls fn for each event in order. A line that is empty, not valid
// JSON or has no type stops the read with an error naming the line, as
// does an error from fn; a stream with no lines is an error too — a
// trace with zero events means the instrumentation never ran. Lines
// may be up to 1 MiB long.
func ReadEvents(in io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			return fmt.Errorf("line %d: empty line", line)
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("line %d: invalid JSON: %v", line, err)
		}
		if e.Type == "" {
			return fmt.Errorf("line %d: event has no type", line)
		}
		if err := fn(e); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return errors.New("trace is empty")
	}
	return nil
}

// CollectorSink retains every event in memory, for tests.
type CollectorSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *CollectorSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (s *CollectorSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Len returns the number of events emitted so far.
func (s *CollectorSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// TeeSink fans every event out to several sinks in order. nil entries
// are skipped; Flush flushes every buffering member and reports the
// first error. An event without a timestamp is stamped once, before the
// fan-out, so every member (the JSONL file, the bus, the run registry,
// the flight recorder) sees the same time_ns; sequence numbers stay
// each sink's own.
type TeeSink []Sink

// Emit implements Sink.
func (t TeeSink) Emit(e Event) {
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	for _, s := range t {
		if s != nil {
			s.Emit(e)
		}
	}
}

// Flush implements Flusher.
func (t TeeSink) Flush() error {
	var first error
	for _, s := range t {
		if err := Flush(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LineSink adapts a legacy io.Writer progress stream to the Sink
// interface: each event renders as one human-readable line. Progress
// events pass their message through verbatim, which keeps the output of
// the pre-sink `Progress io.Writer` plumbing byte-identical.
type LineSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLineSink wraps w.
func NewLineSink(w io.Writer) *LineSink { return &LineSink{w: w} }

// Emit implements Sink.
func (s *LineSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Type == EventProgress {
		io.WriteString(s.w, e.Msg)
		return
	}
	fmt.Fprintln(s.w, e.String())
}
