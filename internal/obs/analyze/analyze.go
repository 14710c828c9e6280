// Package analyze is the consumption half of the observability layer:
// it parses the JSONL event traces that obs.JSONLSink writes (the
// -tracefile output of cmd/lsopc and cmd/tables) back into typed
// runs — each session's state folded by obs.Folds, exactly as the live
// /runs view folds it — and computes the summaries a human (or CI)
// actually wants on top: per-session convergence curves (ln-cost
// slope, best cost), health verdicts from replaying the iterations
// through the live watchdog (obs.Watchdog), per-phase latency
// aggregation with interpolated-free exact p50/p95/p99 over the raw
// span durations, plan-cache and pool hit rates, and run-vs-run diffs.
//
// The package depends only on internal/obs (for the Event schema, the
// reader and the fold) and the standard library, so commands and tests can consume traces
// without touching the simulation stack.
package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"lsopc/internal/obs"
)

// IterPoint is one optimizer iteration of one session's series.
type IterPoint struct {
	Iter        int     `json:"iter"`
	Cost        float64 `json:"cost"`
	CostNominal float64 `json:"cost_nominal,omitempty"`
	CostPVB     float64 `json:"cost_pvb,omitempty"`
	GradNorm    float64 `json:"grad_norm,omitempty"`
	MaxVelocity float64 `json:"max_velocity,omitempty"`
	TimeStep    float64 `json:"time_step,omitempty"`
	DurNS       int64   `json:"dur_ns,omitempty"`
}

// Convergence summarises one session's cost curve.
type Convergence struct {
	Iterations int     `json:"iterations"`
	FirstCost  float64 `json:"first_cost"`
	FinalCost  float64 `json:"final_cost"`
	BestCost   float64 `json:"best_cost"`
	BestIter   int     `json:"best_iter"`
	// ReductionFrac is (first−final)/first; negative when the run ended
	// worse than it started.
	ReductionFrac float64 `json:"reduction_frac"`
	// SlopeLogPerIter is the least-squares slope of ln(cost) over the
	// iteration index — the average relative cost change per iteration
	// (negative = converging). Zero when fewer than two positive costs.
	SlopeLogPerIter float64 `json:"slope_log_per_iter"`
}

// HealthEvent is one watchdog verdict: the iteration it judged, its
// obs.Health* reason code and the iteration's cost.
type HealthEvent struct {
	Iter   int     `json:"iter"`
	Reason string  `json:"reason"`
	Cost   float64 `json:"cost"`
}

// LevelSegment is one resolution level of a coarse-to-fine run: the
// contiguous slice of the session's iterations executed at one grid
// size, with its own convergence summary and iteration-latency
// percentiles. InterpNS is the ψ/θ interpolation + redistancing time
// spent leaving this level (0 for the final, full-resolution level).
type LevelSegment struct {
	GridN       int         `json:"grid_n"`
	StartIter   int         `json:"start_iter"`
	Iterations  int         `json:"iterations"`
	InterpNS    int64       `json:"interp_ns,omitempty"`
	Convergence Convergence `json:"convergence"`
	MeanIterNS  float64     `json:"mean_iter_ns,omitempty"`
	P50IterNS   float64     `json:"p50_iter_ns,omitempty"`
	P95IterNS   float64     `json:"p95_iter_ns,omitempty"`
	P99IterNS   float64     `json:"p99_iter_ns,omitempty"`
}

// Session is the reconstructed view of one traced run (one trace id):
// its folded obs.RunState — the same state the live /runs view reports —
// plus the offline-only series: every iteration point, the convergence
// summary over them, the health verdicts and, for coarse-to-fine runs
// (level_switch events), one segment per resolution in schedule order.
//
// Health is the watchdog replayed over the iteration events: a fresh
// obs.Watchdog starts wherever the live run started one (the session's
// first iteration, each level_switch, each tile_start of a tile
// sub-run) and judges every iteration, so on a -health run the first
// verdict is the run's abort. The replay keeps going past a verdict.
// It runs the windowed checks for every method (a live MOSAIC_fast or
// PVOPC run judges non-finite values only), and a trace that begins at
// a resume point replays from a fresh watchdog.
type Session struct {
	Run         obs.RunState   `json:"run"`
	Iterations  []IterPoint    `json:"iterations,omitempty"`
	Convergence Convergence    `json:"convergence"`
	Levels      []LevelSegment `json:"levels,omitempty"`
	Health      []HealthEvent  `json:"health,omitempty"`

	switches []obs.Event // level_switch events, in emission order
}

// PhaseStats aggregates the durations of one phase: a span name
// ("span:optimize.levelset"), a per-corner simulate op
// ("corner:forward_gradient/nominal") or the optimizer iteration
// ("iteration"). Quantiles are exact (computed from the sorted raw
// durations, not histogram buckets).
type PhaseStats struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
	P50NS   float64 `json:"p50_ns"`
	P95NS   float64 `json:"p95_ns"`
	P99NS   float64 `json:"p99_ns"`
	MaxNS   int64   `json:"max_ns"`

	durs []int64
}

// HitRate is a hit/miss tally (plan-cache lookups, pool leases).
type HitRate struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// Rate returns hits/(hits+misses), 0 when nothing was counted.
func (h HitRate) Rate() float64 {
	if n := h.Hits + h.Misses; n > 0 {
		return float64(h.Hits) / float64(n)
	}
	return 0
}

// Total returns the lookup count.
func (h HitRate) Total() int { return h.Hits + h.Misses }

// StitchPassStat is one halo-stitching consistency pass of a tiled run.
type StitchPassStat struct {
	Pass      int     `json:"pass"`
	Tiles     int     `json:"tiles"` // tiles re-optimized in this pass
	Seam      float64 `json:"seam"`  // worst seam disagreement after the pass
	Converged bool    `json:"converged"`
	DurNS     int64   `json:"dur_ns"`
}

// TiledStats summarises a tiled run: how many distinct tiles ran, the
// per-tile latency percentiles over every tile optimization (initial
// sweep plus stitch re-runs), and the stitch-pass convergence series.
type TiledStats struct {
	Tiles      int              `json:"tiles"`
	Runs       int              `json:"runs"`
	Converged  int              `json:"converged"` // tile runs that hit tolerance
	MeanTileNS float64          `json:"mean_tile_ns"`
	P50TileNS  float64          `json:"p50_tile_ns"`
	P95TileNS  float64          `json:"p95_tile_ns"`
	P99TileNS  float64          `json:"p99_tile_ns"`
	MaxTileNS  int64            `json:"max_tile_ns"`
	Stitch     []StitchPassStat `json:"stitch,omitempty"`
}

// Run is one fully parsed trace file.
type Run struct {
	Label  string `json:"label,omitempty"` // file name or caller-set tag
	Events int    `json:"events"`
	// WallNS spans the first to the last sink timestamp.
	WallNS    int64               `json:"wall_ns"`
	ByType    map[string]int      `json:"by_type"`
	Sessions  map[string]*Session `json:"sessions"`
	Phases    []PhaseStats        `json:"phases"`
	PlanCache HitRate             `json:"plan_cache"`
	Pool      HitRate             `json:"pool"`
	// PoolReleases counts pool release events (not part of the hit rate).
	PoolReleases int `json:"pool_releases"`
	// Health is every health event the live watchdogs emitted into the
	// trace, in order; the sessions' Health fields are the replay.
	Health []obs.Event `json:"health,omitempty"`
	// Tiled is populated when the trace carries tile/stitch events.
	Tiled *TiledStats `json:"tiled,omitempty"`

	tileDurs []int64
	tileSet  map[int]bool

	phaseIdx map[string]int
	// levelDurs buffers per-grid-size corner samples ("corner:…@128");
	// they become phases in finalize only when the trace contains
	// level_switch events, so single-resolution traces keep their
	// existing phase table.
	levelDurs map[string][]int64
}

// SessionIDs returns the session keys in sorted order.
func (r *Run) SessionIDs() []string {
	ids := make([]string, 0, len(r.Sessions))
	for id := range r.Sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Phase returns the named phase's stats, or nil.
func (r *Run) Phase(name string) *PhaseStats {
	if i, ok := r.phaseIdx[name]; ok {
		return &r.Phases[i]
	}
	return nil
}

// Parse reads a JSONL event stream (see obs.ReadEvents for the line
// rules) and builds the typed run. Every run-scoped event folds through
// obs.Folds, the reducer behind the live /runs view, into its session's
// Run state.
func Parse(in io.Reader) (*Run, error) {
	run := &Run{
		ByType:    map[string]int{},
		Sessions:  map[string]*Session{},
		phaseIdx:  map[string]int{},
		levelDurs: map[string][]int64{},
	}
	var folds obs.Folds
	// The replay's watchdog per run id; deleting one starts a fresh
	// watchdog at that run's next iteration.
	watchdogs := map[string]*obs.Watchdog{}
	var firstNS, lastNS int64
	err := obs.ReadEvents(in, func(e obs.Event) error {
		run.Events++
		run.ByType[e.Type]++
		if e.TimeNS != 0 {
			if firstNS == 0 || e.TimeNS < firstNS {
				firstNS = e.TimeNS
			}
			lastNS = max(lastNS, e.TimeNS)
		}
		if folds.Apply(e) {
			s := run.session(e.Trace)
			switch e.Type {
			case obs.EventIteration:
				s.Iterations = append(s.Iterations, IterPoint{
					Iter:        e.Iter,
					Cost:        e.Cost,
					CostNominal: e.CostNominal,
					CostPVB:     e.CostPVB,
					GradNorm:    e.GradNorm,
					MaxVelocity: e.MaxVelocity,
					TimeStep:    e.TimeStep,
					DurNS:       e.DurNS,
				})
				wd := watchdogs[e.Trace]
				if wd == nil {
					wd = obs.NewWatchdog(true)
					watchdogs[e.Trace] = wd
				}
				if reason := wd.Observe(e.Cost, e.GradNorm, e.TimeStep); reason != "" {
					s.Health = append(s.Health, HealthEvent{Iter: e.Iter, Reason: reason, Cost: e.Cost})
				}
			case obs.EventLevelSwitch:
				s.switches = append(s.switches, e)
				delete(watchdogs, e.Trace)
			case obs.EventTileStart:
				delete(watchdogs, obs.TileRunID(e.Trace, e.Tile))
			}
		}
		switch e.Type {
		case obs.EventIteration:
			run.observePhase("iteration", e.DurNS)
		case obs.EventCorner:
			run.observePhase("corner:"+e.Name+"/"+e.Corner, e.DurNS)
			if e.N > 0 {
				key := fmt.Sprintf("corner:%s/%s@%d", e.Name, e.Corner, e.N)
				run.levelDurs[key] = append(run.levelDurs[key], e.DurNS)
			}
		case obs.EventLevelSwitch:
			run.observePhase("level_switch", e.DurNS)
		case obs.EventSpan:
			run.observePhase("span:"+e.Name, e.DurNS)
		case obs.EventPlanCache:
			if e.Hit {
				run.PlanCache.Hits++
			} else {
				run.PlanCache.Misses++
			}
		case obs.EventPool:
			if strings.HasSuffix(e.Name, ".release") {
				run.PoolReleases++
			} else if e.Hit {
				run.Pool.Hits++
			} else {
				run.Pool.Misses++
			}
		case obs.EventHealth:
			run.Health = append(run.Health, e)
		case obs.EventTileDone:
			run.tiled().Runs++
			if e.Hit {
				run.Tiled.Converged++
			}
			run.tileSet[e.Tile] = true
			run.tileDurs = append(run.tileDurs, e.DurNS)
			if e.DurNS > run.Tiled.MaxTileNS {
				run.Tiled.MaxTileNS = e.DurNS
			}
			run.observePhase("tile", e.DurNS)
		case obs.EventStitchPass:
			t := run.tiled()
			t.Stitch = append(t.Stitch, StitchPassStat{
				Pass: e.Pass, Tiles: e.N, Seam: e.Seam, Converged: e.Hit, DurNS: e.DurNS,
			})
			run.observePhase("stitch_pass", e.DurNS)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, st := range folds.States() {
		run.session(st.ID).Run = st
	}
	if lastNS > firstNS {
		run.WallNS = lastNS - firstNS
	}
	run.finalize()
	return run, nil
}

// session returns (creating if needed) the session for a run id.
func (r *Run) session(id string) *Session {
	s, ok := r.Sessions[id]
	if !ok {
		s = &Session{}
		r.Sessions[id] = s
	}
	return s
}

// tiled returns the run's tiled stats, creating them on first use.
func (r *Run) tiled() *TiledStats {
	if r.Tiled == nil {
		r.Tiled = &TiledStats{}
		r.tileSet = map[int]bool{}
	}
	return r.Tiled
}

// observePhase appends one duration sample to the named phase.
func (r *Run) observePhase(name string, durNS int64) {
	i, ok := r.phaseIdx[name]
	if !ok {
		i = len(r.Phases)
		r.phaseIdx[name] = i
		r.Phases = append(r.Phases, PhaseStats{Name: name})
	}
	p := &r.Phases[i]
	p.Count++
	p.TotalNS += durNS
	if durNS > p.MaxNS {
		p.MaxNS = durNS
	}
	p.durs = append(p.durs, durNS)
}

// finalize computes quantiles and convergence summaries and sorts the
// phase table by total time (descending).
func (r *Run) finalize() {
	// Multi-resolution runs get per-grid-size corner phases
	// ("corner:forward_gradient/nominal@64") next to the aggregate ones,
	// so latency percentiles can be compared across levels.
	if r.ByType[obs.EventLevelSwitch] > 0 {
		names := make([]string, 0, len(r.levelDurs))
		for name := range r.levelDurs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, d := range r.levelDurs[name] {
				r.observePhase(name, d)
			}
		}
	}
	r.levelDurs = nil
	for i := range r.Phases {
		p := &r.Phases[i]
		p.MeanNS, p.P50NS, p.P95NS, p.P99NS = quantiles(p.durs)
		p.durs = nil
	}
	sort.Slice(r.Phases, func(a, b int) bool { return r.Phases[a].TotalNS > r.Phases[b].TotalNS })
	r.phaseIdx = map[string]int{}
	for i, p := range r.Phases {
		r.phaseIdx[p.Name] = i
	}
	for _, s := range r.Sessions {
		s.Convergence = summarize(s.Iterations)
		s.Levels = buildLevels(s)
		s.switches = nil
	}
	if r.Tiled != nil {
		r.Tiled.Tiles = len(r.tileSet)
		r.Tiled.MeanTileNS, r.Tiled.P50TileNS, r.Tiled.P95TileNS, r.Tiled.P99TileNS = quantiles(r.tileDurs)
		sort.Slice(r.Tiled.Stitch, func(a, b int) bool { return r.Tiled.Stitch[a].Pass < r.Tiled.Stitch[b].Pass })
	}
	r.tileDurs, r.tileSet = nil, nil
}

// buildLevels slices a coarse-to-fine session's iteration series into
// per-resolution segments at its level_switch boundaries (a switch at
// global iteration i ends the level that ran iterations < i). Sessions
// without switches return nil.
func buildLevels(s *Session) []LevelSegment {
	if len(s.switches) == 0 {
		return nil
	}
	sw := s.switches
	segs := make([]LevelSegment, 0, len(sw)+1)
	start := 0
	for k := 0; k <= len(sw); k++ {
		gridN, endIter, interpNS := 0, math.MaxInt, int64(0)
		if k < len(sw) {
			gridN, endIter, interpNS = sw[k].OldN, sw[k].Iter, sw[k].DurNS
		} else {
			gridN = sw[len(sw)-1].N
		}
		end := start
		for end < len(s.Iterations) && s.Iterations[end].Iter < endIter {
			end++
		}
		pts := s.Iterations[start:end]
		seg := LevelSegment{
			GridN:       gridN,
			Iterations:  len(pts),
			InterpNS:    interpNS,
			Convergence: summarize(pts),
		}
		if len(pts) > 0 {
			seg.StartIter = pts[0].Iter
			durs := make([]int64, 0, len(pts))
			for _, p := range pts {
				if p.DurNS > 0 {
					durs = append(durs, p.DurNS)
				}
			}
			seg.MeanIterNS, seg.P50IterNS, seg.P95IterNS, seg.P99IterNS = quantiles(durs)
		}
		segs = append(segs, seg)
		start = end
	}
	return segs
}

// quantiles sorts durs in place and returns their mean, p50, p95 and
// p99 (all 0 for no samples).
func quantiles(durs []int64) (mean, p50, p95, p99 float64) {
	if len(durs) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	var total int64
	for _, d := range durs {
		total += d
	}
	return float64(total) / float64(len(durs)), percentile(durs, 0.50), percentile(durs, 0.95), percentile(durs, 0.99)
}

// percentile interpolates the q-quantile of ascending-sorted samples.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return float64(sorted[0])
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return float64(sorted[n-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i]) + frac*float64(sorted[i+1]-sorted[i])
}

// summarize computes the convergence summary of one iteration series.
// First and best cost and the ln-cost slope come from folding the
// series through obs.Fold, so they follow the live view's rules (the
// best cost is the lowest finite one, reported at its iteration number).
func summarize(iters []IterPoint) Convergence {
	c := Convergence{Iterations: len(iters)}
	if len(iters) == 0 {
		return c
	}
	var f obs.Fold
	finite := true
	for _, p := range iters {
		f.Apply(obs.Event{Type: obs.EventIteration, Iter: p.Iter, Cost: p.Cost})
		finite = finite && !math.IsNaN(p.Cost) && !math.IsInf(p.Cost, 0)
	}
	st := f.State()
	c.FirstCost, c.BestCost, c.BestIter, c.SlopeLogPerIter = st.FirstCost, st.BestCost, st.BestIter, st.Slope
	c.FinalCost = iters[len(iters)-1].Cost
	if c.FirstCost != 0 && finite {
		c.ReductionFrac = (c.FirstCost - c.FinalCost) / c.FirstCost
	}
	return c
}
