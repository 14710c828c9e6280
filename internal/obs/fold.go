package obs

import (
	"encoding/json"
	"math"
	"strings"
)

// Run phases reported by the fold.
const (
	PhaseRunning   = "running"
	PhaseDone      = "done"
	PhaseCancelled = "cancelled"
)

// RunHealth is the watchdog status of one run.
type RunHealth struct {
	Events     int    `json:"events,omitempty"`      // health verdicts seen
	LastReason string `json:"last_reason,omitempty"` // most recent reason code
	LastIter   int    `json:"last_iter,omitempty"`
}

// TileProgress is the tile/stitch rollup of a tiled parent job.
type TileProgress struct {
	Started       int     `json:"started"`
	Done          int     `json:"done"`
	Converged     int     `json:"converged"`
	Pass          int     `json:"pass,omitempty"` // latest completed stitch pass
	Seam          float64 `json:"seam,omitempty"` // worst seam disagreement after it
	SeamConverged bool    `json:"seam_converged,omitempty"`
}

// MarshalJSON keeps a NaN seam (a poisoned tile) from failing the whole
// /runs response.
func (t TileProgress) MarshalJSON() ([]byte, error) {
	type alias TileProgress
	return json.Marshal(struct {
		alias
		Seam traceFloat `json:"seam,omitempty"`
	}{alias(t), traceFloat(t.Seam)})
}

// RunState is a point-in-time snapshot of one run (a session or a tile
// sub-run) as folded from its trace events. The live /runs endpoints
// and the offline analyze package both report it, from the same Fold.
type RunState struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"` // tiled job id of a tile sub-run (see TileRunID)
	Engine string `json:"engine,omitempty"`
	Phase  string `json:"phase"`
	Level  int    `json:"level,omitempty"` // current grid edge under multires

	Iter      int     `json:"iter"`
	Cost      float64 `json:"cost,omitempty"`
	FirstCost float64 `json:"first_cost,omitempty"`
	// BestCost is the lowest finite cost seen, at iteration BestIter.
	BestCost float64 `json:"best_cost,omitempty"`
	BestIter int     `json:"best_iter,omitempty"`
	// Slope is the least-squares slope of ln(cost) per iteration (see
	// SlopeAccum).
	Slope float64 `json:"slope_log_per_iter,omitempty"`

	Events    int64 `json:"events"`
	StartNS   int64 `json:"start_ns,omitempty"`
	UpdatedNS int64 `json:"updated_ns,omitempty"`
	DurNS     int64 `json:"dur_ns,omitempty"` // optimize span wall time once finished

	Health        RunHealth `json:"health"`
	Cancelled     bool      `json:"cancelled,omitempty"`
	CancelledIter int       `json:"cancelled_iter,omitempty"`
	Checkpoints   int       `json:"checkpoints,omitempty"`
	// Captures counts the postmortem bundles the flight recorder wrote
	// for this run (capture events).
	Captures int           `json:"captures,omitempty"`
	Tiles    *TileProgress `json:"tiles,omitempty"`
	// Children lists the tile sub-runs of a tiled job in tile order.
	Children []string `json:"children,omitempty"`
}

// MarshalJSON makes the cost/slope fields non-finite-safe; everything
// else marshals as usual.
func (s RunState) MarshalJSON() ([]byte, error) {
	type alias RunState
	return json.Marshal(struct {
		alias
		Cost      traceFloat `json:"cost,omitempty"`
		FirstCost traceFloat `json:"first_cost,omitempty"`
		BestCost  traceFloat `json:"best_cost,omitempty"`
		Slope     traceFloat `json:"slope_log_per_iter,omitempty"`
	}{alias(s), traceFloat(s.Cost), traceFloat(s.FirstCost), traceFloat(s.BestCost), traceFloat(s.Slope)})
}

// Fold is the per-run reducer behind both views of a run: Apply folds
// one of the run's trace events into its RunState — phase, multires
// level, iteration, cost, first and best cost, convergence slope,
// watchdog health, cancellation, checkpoints, captures, tile/stitch
// progress, children and engine. The zero value folds an anonymous run.
// Not safe for concurrent use.
type Fold struct {
	st      RunState
	slope   SlopeAccum
	hasBest bool
}

// Apply folds one event of this run.
func (f *Fold) Apply(e Event) {
	s := &f.st
	s.Events++
	f.touch(e.TimeNS)
	switch e.Type {
	case EventIteration:
		s.Iter = max(s.Iter, e.Iter)
		s.Cost = e.Cost
		if f.slope.i == 0 {
			s.FirstCost = e.Cost
		}
		f.slope.Observe(e.Cost)
		s.Slope = f.slope.Slope()
		if finite(e.Cost) && (!f.hasBest || e.Cost < s.BestCost) {
			s.BestCost, s.BestIter, f.hasBest = e.Cost, e.Iter, true
		}
	case EventLevelSwitch:
		s.Level = e.N
		s.Iter = max(s.Iter, e.Iter)
	case EventHealth:
		s.Health.Events++
		s.Health.LastReason = e.Msg
		s.Health.LastIter = e.Iter
	case EventCancelled:
		s.Cancelled = true
		s.CancelledIter = e.Iter
		f.finish(PhaseCancelled)
	case EventCheckpoint:
		s.Checkpoints++
	case EventCapture:
		s.Captures++
	case EventTileStart:
		f.tiles().Started++
		s.Children = addChild(s.Children, TileRunID(s.ID, e.Tile))
	case EventTileDone:
		t := f.tiles()
		t.Done++
		if e.Hit {
			t.Converged++
		}
	case EventStitchPass:
		t := f.tiles()
		t.Pass = max(t.Pass, e.Pass)
		t.Seam = e.Seam
		t.SeamConverged = e.Hit
	case EventSpan:
		if s.Engine == "" {
			s.Engine = e.Engine
		}
		if strings.HasPrefix(e.Name, "optimize") {
			s.DurNS = e.DurNS
			f.finish(PhaseDone)
		}
	}
}

// State returns a snapshot of the folded run that later Apply calls do
// not mutate.
func (f *Fold) State() RunState {
	st := f.st
	if st.Tiles != nil {
		t := *st.Tiles
		st.Tiles = &t
	}
	if st.Children != nil {
		st.Children = append([]string(nil), st.Children...)
	}
	return st
}

// touch widens the run's [StartNS, UpdatedNS] window to include t.
func (f *Fold) touch(t int64) {
	if f.st.StartNS == 0 || (t != 0 && t < f.st.StartNS) {
		f.st.StartNS = t
	}
	if t > f.st.UpdatedNS {
		f.st.UpdatedNS = t
	}
}

// finish moves a running run to a terminal phase; a terminal phase is
// final (a late span cannot turn a cancelled run into a done one).
func (f *Fold) finish(phase string) {
	if f.st.Phase == PhaseRunning {
		f.st.Phase = phase
	}
}

func (f *Fold) tiles() *TileProgress {
	if f.st.Tiles == nil {
		f.st.Tiles = &TileProgress{}
	}
	return f.st.Tiles
}

// addChild inserts id into a tiled job's children, keeping them in tile
// order: sibling ids share the "<job>.t" prefix, so a shorter id has
// the smaller ordinal. The order is independent of the order in which
// concurrent tile workers emit their tile_start events.
func addChild(children []string, id string) []string {
	i := 0
	for ; i < len(children); i++ {
		c := children[i]
		if c == id {
			return children
		}
		if len(id) < len(c) || (len(id) == len(c) && id < c) {
			break
		}
	}
	children = append(children, "")
	copy(children[i+1:], children[i:])
	children[i] = id
	return children
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Folds keys one Fold per run id over a whole trace stream. It holds
// the cross-run rules: which events belong to a run, that a tile_start
// opens the tile's sub-run and links it both ways, and that a job's
// terminal phase cascades to its tile sub-runs (tiles emit no optimize
// span of their own). RunRegistry wraps it for the live /runs view and
// analyze.Parse replays a recorded trace through it, so the two views
// cannot disagree. The zero value is ready to use; not safe for
// concurrent use.
type Folds struct {
	runs     map[string]*Fold
	active   int      // runs still in PhaseRunning
	finished []string // runs in the order they reached a terminal phase
}

// Apply routes e to its run's Fold and reports whether it folded:
// runtime-scoped events and events without a run id belong to no run.
func (fs *Folds) Apply(e Event) bool {
	if !runScoped(e) {
		return false
	}
	f := fs.run(e.Trace)
	running := f.st.Phase == PhaseRunning
	f.Apply(e)
	if e.Type == EventTileStart {
		c := fs.run(TileRunID(e.Trace, e.Tile))
		c.st.Parent = e.Trace
		c.touch(e.TimeNS)
	}
	if running && f.st.Phase != PhaseRunning {
		fs.finish(f)
	}
	return true
}

// States returns a snapshot of every run, in no particular order.
func (fs *Folds) States() []RunState {
	out := make([]RunState, 0, len(fs.runs))
	for _, f := range fs.runs {
		out = append(out, f.State())
	}
	return out
}

// run returns (creating if needed) the fold of a run id. A new tile
// sub-run links itself into its parent job's children.
func (fs *Folds) run(id string) *Fold {
	if f := fs.runs[id]; f != nil {
		return f
	}
	if fs.runs == nil {
		fs.runs = make(map[string]*Fold)
	}
	f := &Fold{st: RunState{ID: id, Parent: ParentRunID(id), Phase: PhaseRunning}}
	fs.runs[id] = f
	fs.active++
	if p := fs.runs[f.st.Parent]; p != nil {
		p.st.Children = addChild(p.st.Children, id)
	}
	return f
}

// finish records f's terminal phase and cascades it to f's running
// tile sub-runs.
func (fs *Folds) finish(f *Fold) {
	fs.active--
	fs.finished = append(fs.finished, f.st.ID)
	for _, id := range f.st.Children {
		if c := fs.runs[id]; c != nil && c.st.Phase == PhaseRunning {
			c.st.Phase = f.st.Phase
			fs.finish(c)
		}
	}
}

func runScoped(e Event) bool { return e.Trace != "" && !RuntimeScoped(e.Type) }
