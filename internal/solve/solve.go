// Package solve is the shared, method-agnostic optimizer runtime behind
// internal/core (level-set ψ) and internal/pixelilt (pixel θ): one
// Driver owns the iteration budget, the adaptive step scale, keep-best
// and history/snapshot bookkeeping, the numerical-health watchdog and
// typed trace emission, while each method plugs in a Stepper that knows
// how to evaluate its gradient and advance its state. RunLevels layers
// the coarse-to-fine schedule (exact coarse-bank hand-offs, globally
// contiguous iteration numbering, level_switch events) on top of the
// same Driver.
//
// The Driver is also the cancellation and checkpoint boundary: Run
// yields between iterations, so a context cancellation surfaces
// promptly as a Cancelled error carrying a resumable Checkpoint, and a
// restored run replays bit-identically to an uninterrupted one — the
// primitive a preemptible job queue schedules on.
package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// IterStats records one driver iteration. It is the one iteration
// record of every method: its history row, its trace event and the
// values its watchdog judges. Stepper.Eval fills the cost, its
// nominal/PV-band split, the PRP coefficient (level-set) and the
// corner-simulation count (pixelilt, Evals); the driver fills Iter,
// MaxVelocity and TimeStep.
type IterStats struct {
	Iter int
	// Cost is the iteration's total cost: it drives the adaptive step
	// scale, keep-best selection, watchdog verdicts and trace events.
	Cost        float64
	CostNominal float64
	CostPVB     float64
	MaxVelocity float64
	TimeStep    float64
	LambdaPRP   float64
	// Evals counts the forward+gradient corner evaluations performed
	// this iteration (0 when the method does not track them).
	Evals int
}

// event is the row's iteration trace event. The gradient norm is the
// one traced value the row does not carry.
func (r IterStats) event(gradNorm float64) obs.Event {
	return obs.Event{
		Type:        obs.EventIteration,
		Iter:        r.Iter,
		N:           r.Evals,
		Cost:        r.Cost,
		CostNominal: r.CostNominal,
		CostPVB:     r.CostPVB,
		GradNorm:    gradNorm,
		MaxVelocity: r.MaxVelocity,
		TimeStep:    r.TimeStep,
		LambdaPRP:   r.LambdaPRP,
	}
}

// Snapshot is a mask state captured mid-run.
type Snapshot struct {
	Iter int
	Mask *grid.Field
}

// Stepper is the per-method slice of one optimizer iteration. The
// Driver calls, in order: Eval (simulate + search direction), SaveBest
// (keep-best bookkeeping), StepSize (move magnitude under the current
// step scale), GradNorm (tracing/health only), and Advance (apply the
// move). All methods run on the Driver's goroutine.
type Stepper interface {
	// Eval simulates local iteration i and computes the search
	// direction, leaving it in the stepper's scratch. It returns the
	// iteration's row with the method's fields set (see IterStats).
	Eval(i int) IterStats
	// SaveBest copies the current iterate into the best-iterate store.
	// Called only when Config.KeepBest is set.
	SaveBest()
	// StepSize returns the move magnitude for the current direction
	// under the driver's step scale, plus the direction's max abs entry
	// (the convergence statistic).
	StepSize(scale float64) (dt, maxV float64)
	// GradNorm returns the search-direction norm for tracing and health
	// verdicts. Called only when a sink or watchdog is attached.
	GradNorm() float64
	// Advance moves the state by dt and returns the step actually taken
	// (a line search may adjust it).
	Advance(i int, dt float64) float64
	// Snapshot clones the current mask for the snapshot series. Called
	// only when Config.SnapshotEvery > 0.
	Snapshot() *grid.Field
	// State clones the evolving state (ψ or θ): the keep-best iterate
	// when best is set, else the last one. It is Outcome.State — the
	// run's result and the multi-resolution hand-off.
	State(best bool) *grid.Field
	// SaveState clones every field a bit-exact resume needs, keyed by
	// the method's own names (e.g. "psi", "gprev", "velocity").
	SaveState() map[string]*grid.Field
	// RestoreState loads a SaveState map back into the stepper.
	RestoreState(map[string]*grid.Field) error
}

// Config parameterises a Driver.
type Config struct {
	// Method tags checkpoints and cancellation events ("level-set", a
	// pixelilt variant name, …) and guards resume against mismatches.
	Method string
	// MaxIter is the iteration budget of this run (or level).
	MaxIter int
	// Offset shifts the globally reported iteration numbers (history,
	// events, watchdog verdicts) — the multi-resolution schedule keeps
	// one contiguous axis across levels with it.
	Offset int
	// Tolerance stops the run when the direction's max abs entry falls
	// to or below it.
	Tolerance float64
	// AdaptiveStep halves the step scale after a cost increase and lets
	// it recover slowly (×1.1, capped at BaseScale) on success, with a
	// floor of BaseScale/16. Off, the scale stays at BaseScale.
	AdaptiveStep bool
	// BaseScale is the initial (and maximum) step scale — λ_t for the
	// level-set CFL step, the fixed step size for the pixel baselines.
	BaseScale float64
	// KeepBest tracks the lowest-cost iterate via Stepper.SaveBest.
	KeepBest bool
	// SnapshotEvery records a snapshot every that many iterations
	// (0 disables).
	SnapshotEvery int
	// Sink receives one typed iteration event per step plus the
	// cancellation/checkpoint events; nil disables tracing and the
	// disabled path performs no allocations.
	Sink obs.Sink
	// Trace tags this run's events in a shared sink.
	Trace string
	// Engine names the execution engine in emitted events.
	Engine string
	// Watchdog, when non-nil, judges every iteration; the driver emits
	// its verdict as a health event and stops the run on it. One
	// watchdog serves one driver.
	Watchdog *obs.Watchdog
	// Observe, when non-nil, receives each step's wall time at the same
	// measurement point the per-method iteration metrics used — before
	// trace emission, so instrumentation cost stays out of the
	// histogram.
	Observe func(time.Duration)
}

// Outcome is what a Driver run produced; it owns every field. State
// is the run's result: a clone of the keep-best iterate when
// Config.KeepBest is set and some iteration's cost beat +Inf, else of
// the last iterate. Mask is the binary mask of State under the
// method's own rule; the driver leaves it nil and the method's run
// entry point (core.Run, pixelilt.Optimize) sets it.
type Outcome struct {
	Iterations int
	// Converged is set when the run stopped on Config.Tolerance.
	Converged bool
	// Aborted is set when the health watchdog stopped the run early;
	// AbortReason carries the obs.Health* reason code.
	Aborted     bool
	AbortReason string
	// Evals counts the forward+gradient corner evaluations (a runtime
	// proxy); 0 for a method that does not track them.
	Evals     int
	History   []IterStats
	Snapshots []Snapshot
	State     *grid.Field
	Mask      *grid.Field
	// AbortCheckpoint is captured at the iteration boundary a watchdog
	// abort stopped the run on, so a poisoned run can be resumed (e.g.
	// without the watchdog) or bisected postmortem. nil unless
	// Aborted.
	AbortCheckpoint *Checkpoint
}

// Driver executes the shared iteration loop over a Stepper. One Driver
// runs one (level of one) optimization; it is not safe for concurrent
// use.
type Driver struct {
	s   Stepper
	cfg Config

	i        int // next local iteration
	scale    float64
	prevCost float64
	hasPrev  bool
	bestCost float64
	out      *Outcome
}

// mHealthEvents counts watchdog verdicts process-wide.
var mHealthEvents = obs.Default.Counter("obs.health.events")

// NewDriver builds a driver over the stepper. The history is allocated
// to the full budget up front so the steady-state step stays
// allocation-free.
func NewDriver(s Stepper, cfg Config) *Driver {
	return &Driver{
		s:        s,
		cfg:      cfg,
		scale:    cfg.BaseScale,
		bestCost: math.Inf(1),
		out:      &Outcome{History: make([]IterStats, 0, cfg.MaxIter)},
	}
}

// Step executes one iteration and reports whether the run should stop
// (budget exhaustion is the caller's check). The steady-state path
// performs no allocations: scratch lives on the stepper, the history
// is pre-sized, and the disabled-sink path is a nil check.
func (d *Driver) Step() (stop bool) {
	stepStart := time.Now()
	i := d.i
	gi := i + d.cfg.Offset // globally reported iteration number

	row := d.s.Eval(i)

	// Feedback step-scale control: shrink after an overshoot, recover
	// slowly.
	if d.cfg.AdaptiveStep && i > 0 {
		if row.Cost > d.prevCost {
			d.scale = math.Max(d.scale*0.5, d.cfg.BaseScale/16)
		} else {
			d.scale = math.Min(d.scale*1.1, d.cfg.BaseScale)
		}
	}
	d.prevCost, d.hasPrev = row.Cost, true
	if d.cfg.KeepBest && row.Cost < d.bestCost {
		d.bestCost = row.Cost
		d.s.SaveBest()
	}

	// Record stats before the update so the trace reflects the state
	// the direction was computed from.
	row.Iter = gi
	row.TimeStep, row.MaxVelocity = d.s.StepSize(d.scale)
	d.out.History = append(d.out.History, row)
	d.out.Evals += row.Evals
	if d.cfg.Observe != nil {
		d.cfg.Observe(time.Since(stepStart))
	}
	gradNorm := 0.0
	if d.cfg.Sink != nil || d.cfg.Watchdog != nil {
		gradNorm = d.s.GradNorm()
	}
	if d.cfg.Sink != nil {
		e := row.event(gradNorm)
		e.Trace = d.cfg.Trace
		e.Engine = d.cfg.Engine
		e.DurNS = time.Since(stepStart).Nanoseconds()
		d.cfg.Sink.Emit(e)
	}
	if d.cfg.SnapshotEvery > 0 && i%d.cfg.SnapshotEvery == 0 {
		d.out.Snapshots = append(d.out.Snapshots, Snapshot{Iter: gi, Mask: d.s.Snapshot()})
	}

	d.out.Iterations = i + 1
	d.i = i + 1
	// Health watchdog: judge this iteration's statistics and stop the
	// run in the same iteration on a verdict, so a NaN-poisoned or
	// diverging run cannot burn its remaining budget.
	if d.cfg.Watchdog != nil {
		if reason := d.cfg.Watchdog.Observe(row.Cost, gradNorm, row.TimeStep); reason != "" {
			mHealthEvents.Inc()
			if d.cfg.Sink != nil {
				d.cfg.Sink.Emit(obs.Event{
					Type:     obs.EventHealth,
					Trace:    d.cfg.Trace,
					Iter:     gi,
					Cost:     row.Cost,
					GradNorm: gradNorm,
					TimeStep: row.TimeStep,
					Msg:      reason,
				})
			}
			d.out.Aborted = true
			d.out.AbortReason = reason
			// Capture the poisoned state at this exact boundary: the
			// postmortem path (flight recorder bundles) persists it so the
			// aborted run stays resumable for bisection.
			d.out.AbortCheckpoint = d.Checkpoint()
			return true
		}
	}
	// Stop when the front has stalled.
	if row.MaxVelocity <= d.cfg.Tolerance {
		d.out.Converged = true
		return true
	}

	if adt := d.s.Advance(i, row.TimeStep); adt != row.TimeStep {
		d.out.History[len(d.out.History)-1].TimeStep = adt
	}
	return false
}

// Run drives Step to the budget, a stop verdict, or a cancellation.
// Cancellation is checked at each iteration boundary; when it fires,
// Run captures a Checkpoint at that exact boundary and returns a
// *Cancelled error that unwraps to the context's error.
//
// The loop runs under pprof labels (run_id = Config.Trace, phase =
// Config.Method) so CPU profiles — live /debug/pprof pulls and the
// flight recorder's captured slices — attribute samples to the job.
// Engine helpers run each call under its caller's labels, so the
// engine's parallel work is attributed too. The labels
// are applied once per Run, not per Step, keeping the steady-state
// iteration allocation-free.
func (d *Driver) Run(ctx context.Context) (out *Outcome, err error) {
	labels := pprof.Labels("run_id", d.cfg.Trace, "phase", d.cfg.Method)
	pprof.Do(ctx, labels, func(ctx context.Context) {
		for d.i < d.cfg.MaxIter {
			if cerr := ctx.Err(); cerr != nil {
				err = d.cancelled(cerr)
				return
			}
			if d.Step() {
				break
			}
		}
		out = d.finish()
	})
	return out, err
}

// finish seals the outcome with the one clone of the run's result.
func (d *Driver) finish() *Outcome {
	d.out.State = d.s.State(d.cfg.KeepBest && !math.IsInf(d.bestCost, 1))
	return d.out
}

// cancelled captures the checkpoint, emits the cancellation events and
// wraps the cause.
func (d *Driver) cancelled(cause error) error {
	cp := d.Checkpoint()
	if d.cfg.Sink != nil {
		gi := d.i + d.cfg.Offset
		d.cfg.Sink.Emit(obs.Event{
			Type:   obs.EventCancelled,
			Trace:  d.cfg.Trace,
			Name:   d.cfg.Method,
			Engine: d.cfg.Engine,
			Iter:   gi,
			Msg:    cause.Error(),
		})
		d.cfg.Sink.Emit(obs.Event{
			Type:   obs.EventCheckpoint,
			Trace:  d.cfg.Trace,
			Name:   d.cfg.Method,
			Engine: d.cfg.Engine,
			Iter:   gi,
			N:      len(cp.State),
			Msg:    "resumable state captured",
		})
	}
	return &Cancelled{Checkpoint: cp, cause: cause}
}

// Checkpoint captures the run at the current iteration boundary. The
// returned checkpoint owns clones of every field; the driver can keep
// running afterwards.
func (d *Driver) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Method:   d.cfg.Method,
		Factor:   1,
		Iter:     d.i,
		Offset:   d.cfg.Offset,
		Scale:    d.scale,
		PrevCost: d.prevCost,
		HasPrev:  d.hasPrev,
		BestCost: d.bestCost,
		Evals:    d.out.Evals,
		History:  append([]IterStats(nil), d.out.History...),
		State:    d.s.SaveState(),
	}
	if d.cfg.Watchdog != nil {
		st := d.cfg.Watchdog.State()
		cp.Watchdog = &st
	}
	return cp
}

// Restore loads a checkpoint into a freshly built driver (no steps
// taken yet) so Run continues bit-identically from the captured
// boundary. The driver must be configured exactly as the checkpointed
// run was — same method, budget and iteration offset.
func (d *Driver) Restore(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("solve: nil checkpoint")
	}
	if err := cp.validate(); err != nil {
		return err
	}
	switch {
	case cp.Method != d.cfg.Method:
		return fmt.Errorf("%w: method %q, run method %q", ErrCheckpointMismatch, cp.Method, d.cfg.Method)
	case cp.Offset != d.cfg.Offset:
		return fmt.Errorf("%w: iteration offset %d, the run's %d", ErrCheckpointMismatch, cp.Offset, d.cfg.Offset)
	case cp.Iter > d.cfg.MaxIter || len(cp.History) > d.cfg.MaxIter:
		return fmt.Errorf("%w: iteration %d exceeds the %d-iteration budget", ErrCheckpointMismatch, cp.Iter, d.cfg.MaxIter)
	}
	d.i = cp.Iter
	d.scale = cp.Scale
	d.prevCost, d.hasPrev = cp.PrevCost, cp.HasPrev
	d.bestCost = cp.BestCost
	d.out.Evals = cp.Evals
	d.out.History = append(d.out.History[:0], cp.History...)
	d.out.Iterations = cp.Iter
	if cp.Watchdog != nil && d.cfg.Watchdog != nil {
		d.cfg.Watchdog.Restore(*cp.Watchdog)
	}
	return d.s.RestoreState(cp.State)
}
