package obs

import (
	"encoding/json"
	"sort"
	"sync"
)

// RunIterPoint is one point of a run's recent iteration series.
type RunIterPoint struct {
	Iter   int     `json:"iter"`
	Cost   float64 `json:"cost"`
	TimeNS int64   `json:"time_ns,omitempty"`
}

// MarshalJSON round-trips non-finite costs like the trace events do.
func (p RunIterPoint) MarshalJSON() ([]byte, error) {
	type alias RunIterPoint
	return json.Marshal(struct {
		alias
		Cost traceFloat `json:"cost"`
	}{alias(p), traceFloat(p.Cost)})
}

// RunRegistry is the live view of the trace stream: a Folds (the same
// per-run fold analyze replays offline) behind a mutex, plus a bounded
// tail of each run's recent iteration points and a cap on finished runs.
// It implements Sink, so it composes into any trace chain (TeeSink
// alongside the JSONL file and the Bus); the /runs endpoints serve its
// snapshots.
//
// Runs finish when their optimize span arrives (or a cancelled event);
// finished runs are retained up to MaxFinishedRuns and then evicted
// oldest first — in-flight runs are never evicted.
type RunRegistry struct {
	mu    sync.Mutex
	folds Folds
	tails map[string]*Ring[RunIterPoint]

	runsGauge *Gauge   // obs.runs.active
	folded    *Counter // obs.runs.events
}

// A RunRegistry retains up to MaxFinishedRuns finished runs and the last
// runTailPoints iteration points of each run.
const (
	MaxFinishedRuns = 64
	runTailPoints   = 512
)

// NewRunRegistry returns a registry publishing its gauges to reg (nil
// means the Default registry).
func NewRunRegistry(reg *Registry) *RunRegistry {
	if reg == nil {
		reg = Default
	}
	return &RunRegistry{
		tails:     make(map[string]*Ring[RunIterPoint]),
		runsGauge: reg.Gauge("obs.runs.active"),
		folded:    reg.Counter("obs.runs.events"),
	}
}

// Emit implements Sink: the event folds into its run (see Folds.Apply)
// and, for iterations, joins the run's tail.
func (rr *RunRegistry) Emit(e Event) {
	if !runScoped(e) {
		return
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.folds.Apply(e)
	rr.folded.Inc()
	if e.Type == EventIteration {
		t := rr.tails[e.Trace]
		if t == nil {
			t = NewRing[RunIterPoint](runTailPoints)
			rr.tails[e.Trace] = t
		}
		t.Push(RunIterPoint{Iter: e.Iter, Cost: e.Cost, TimeNS: e.TimeNS})
	}
	rr.runsGauge.Set(int64(rr.folds.active))
	for len(rr.folds.finished) > MaxFinishedRuns {
		old := rr.folds.finished[0]
		rr.folds.finished = rr.folds.finished[1:]
		delete(rr.folds.runs, old)
		delete(rr.tails, old)
	}
}

// Runs returns a snapshot of every tracked run, in-flight first, then
// by start time, then id.
func (rr *RunRegistry) Runs() []RunState {
	rr.mu.Lock()
	out := rr.folds.States()
	rr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Phase == PhaseRunning, out[j].Phase == PhaseRunning
		if ri != rj {
			return ri
		}
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Run returns the snapshot and recent iteration series of one run.
func (rr *RunRegistry) Run(id string) (RunState, []RunIterPoint, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	f := rr.folds.runs[id]
	if f == nil {
		return RunState{}, nil, false
	}
	tail := []RunIterPoint{}
	if t := rr.tails[id]; t != nil {
		tail = t.Items()
	}
	return f.State(), tail, true
}
