package obs

import "math"

// Health reason codes carried in the Msg field of EventHealth events and
// in Verdict.Reason.
const (
	// HealthNonFiniteCost: the iteration cost is NaN or ±Inf.
	HealthNonFiniteCost = "non_finite_cost"
	// HealthNonFiniteGrad: the gradient norm is NaN or ±Inf.
	HealthNonFiniteGrad = "non_finite_gradient"
	// HealthStall: StallWindow consecutive iterations moved the cost by
	// less than StallEpsilon (relative) or took a zero time step.
	HealthStall = "stall"
	// HealthDivergence: the cost exceeds DivergenceFactor × the minimum
	// cost seen over the sliding DivergenceWindow.
	HealthDivergence = "divergence"
)

// HealthPolicy configures the numerical-health watchdog that optimizer
// loops (core, pixelilt) run their per-iteration statistics through. A
// diverging or NaN-poisoned run otherwise burns its whole iteration
// budget silently; the watchdog turns that into a typed `health` trace
// event and, under AbortOnUnhealthy, an early stop.
type HealthPolicy struct {
	// CheckNonFinite flags NaN/Inf cost or gradient norm.
	CheckNonFinite bool
	// StallWindow is the number of consecutive low-progress iterations
	// (relative improvement below StallEpsilon, or a zero time step)
	// before a stall is flagged. 0 disables stall detection.
	StallWindow int
	// StallEpsilon is the relative per-iteration cost improvement below
	// which an iteration counts as stalled.
	StallEpsilon float64
	// DivergenceWindow is the sliding window (in iterations) whose
	// minimum cost the current cost is compared against. 0 disables
	// divergence detection.
	DivergenceWindow int
	// DivergenceFactor flags divergence when
	// cost > DivergenceFactor × min(cost over window).
	DivergenceFactor float64
	// AbortOnUnhealthy makes the watchdog request an early stop on the
	// first unhealthy verdict; disabled, it only emits health events.
	AbortOnUnhealthy bool
}

// DefaultHealthPolicy returns the standard watchdog configuration: all
// checks on, abort on the first unhealthy iteration.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{
		CheckNonFinite:   true,
		StallWindow:      8,
		StallEpsilon:     1e-9,
		DivergenceWindow: 10,
		DivergenceFactor: 10,
		AbortOnUnhealthy: true,
	}
}

// Verdict is the watchdog's judgement of one iteration.
type Verdict struct {
	// Healthy is false when any enabled check tripped this iteration.
	Healthy bool
	// Reason is the health reason code ("" when healthy).
	Reason string
	// Abort requests that the optimizer stop now (only set when
	// unhealthy and the policy has AbortOnUnhealthy).
	Abort bool
}

// Watchdog evaluates a HealthPolicy over a run's iteration statistics.
// It is stateful (sliding windows) and owned by a single optimizer run,
// so it is not safe for concurrent use — like the optimizers that embed
// it. All window state is preallocated; Observe performs no allocations,
// keeping the instrumented iteration path allocation-free.
type Watchdog struct {
	policy HealthPolicy
	sink   Sink
	trace  string

	prevCost float64
	hasPrev  bool
	stallRun int
	window   []float64 // ring buffer of recent costs (DivergenceWindow)
	winLen   int
	winNext  int
	trips    int
}

// mHealthEvents counts unhealthy verdicts process-wide.
var mHealthEvents = Default.Counter("obs.health.events")

// NewWatchdog builds a watchdog for one run. sink may be nil (verdicts
// are still returned, just not traced); trace tags emitted events.
func NewWatchdog(p HealthPolicy, sink Sink, trace string) *Watchdog {
	w := &Watchdog{policy: p, sink: sink, trace: trace}
	if p.DivergenceWindow > 0 {
		w.window = make([]float64, p.DivergenceWindow)
	}
	return w
}

// Observe judges one iteration from its cost, gradient norm and time
// step. Checks run in severity order (non-finite, divergence, stall);
// the first that trips wins. An unhealthy verdict emits one EventHealth
// to the sink and bumps the obs.health.events counter.
func (w *Watchdog) Observe(iter int, cost, gradNorm, timeStep float64) Verdict {
	reason := ""
	switch {
	case w.policy.CheckNonFinite && (math.IsNaN(cost) || math.IsInf(cost, 0)):
		reason = HealthNonFiniteCost
	case w.policy.CheckNonFinite && (math.IsNaN(gradNorm) || math.IsInf(gradNorm, 0)):
		reason = HealthNonFiniteGrad
	default:
		reason = w.observeFinite(cost, timeStep)
	}
	if reason == "" {
		return Verdict{Healthy: true}
	}
	w.trips++
	mHealthEvents.Inc()
	if w.sink != nil {
		w.sink.Emit(Event{
			Type:     EventHealth,
			Trace:    w.trace,
			Iter:     iter,
			Cost:     cost,
			GradNorm: gradNorm,
			TimeStep: timeStep,
			Msg:      reason,
		})
	}
	return Verdict{Reason: reason, Abort: w.policy.AbortOnUnhealthy}
}

// WatchdogState is the serialisable snapshot of a watchdog's sliding
// windows and counters, captured into solver checkpoints so a resumed
// run issues the same verdicts an uninterrupted one would.
type WatchdogState struct {
	PrevCost float64
	HasPrev  bool
	StallRun int
	Window   []float64
	WinLen   int
	WinNext  int
	Trips    int
}

// State captures the watchdog's mutable state. The window is cloned;
// the policy is not part of the state (a resume re-supplies it).
func (w *Watchdog) State() WatchdogState {
	return WatchdogState{
		PrevCost: w.prevCost,
		HasPrev:  w.hasPrev,
		StallRun: w.stallRun,
		Window:   append([]float64(nil), w.window...),
		WinLen:   w.winLen,
		WinNext:  w.winNext,
		Trips:    w.trips,
	}
}

// Restore loads a captured state into the watchdog. The window length
// is dictated by the watchdog's own policy; a state captured under a
// different DivergenceWindow is truncated or zero-padded to fit.
func (w *Watchdog) Restore(st WatchdogState) {
	w.prevCost = st.PrevCost
	w.hasPrev = st.HasPrev
	w.stallRun = st.StallRun
	w.trips = st.Trips
	if len(w.window) == len(st.Window) {
		copy(w.window, st.Window)
		w.winLen, w.winNext = st.WinLen, st.WinNext
	} else if len(w.window) > 0 {
		n := copy(w.window, st.Window)
		w.winLen, w.winNext = n, n%len(w.window)
	}
}

// observeFinite runs the divergence and stall checks on a finite cost
// and updates the window state.
func (w *Watchdog) observeFinite(cost, timeStep float64) string {
	reason := ""
	// Divergence: compare against the minimum over the previous
	// DivergenceWindow costs (before admitting the current one, so a
	// single explosive jump is caught immediately).
	if w.policy.DivergenceWindow > 0 {
		if w.winLen > 0 {
			min := w.window[0]
			for _, c := range w.window[1:w.winLen] {
				if c < min {
					min = c
				}
			}
			if min > 0 && cost > w.policy.DivergenceFactor*min {
				reason = HealthDivergence
			}
		}
		w.window[w.winNext] = cost
		w.winNext = (w.winNext + 1) % len(w.window)
		if w.winLen < len(w.window) {
			w.winLen++
		}
	}
	// Stall: consecutive iterations with negligible relative improvement
	// (or a zero step, which means the front cannot move at all).
	if reason == "" && w.policy.StallWindow > 0 {
		stalled := timeStep == 0
		if w.hasPrev && !stalled {
			denom := math.Abs(w.prevCost)
			if denom < 1 {
				denom = 1
			}
			stalled = (w.prevCost-cost)/denom < w.policy.StallEpsilon
		}
		if stalled {
			w.stallRun++
		} else {
			w.stallRun = 0
		}
		if w.stallRun >= w.policy.StallWindow {
			reason = HealthStall
			// Re-arm so a non-aborting watchdog flags the next full
			// window instead of every subsequent iteration.
			w.stallRun = 0
		}
	}
	w.prevCost, w.hasPrev = cost, true
	return reason
}
