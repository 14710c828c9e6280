package obs

import "math"

// Health reason codes carried in the Msg field of EventHealth events,
// returned by Watchdog.Observe and recorded as Outcome.AbortReason.
const (
	// HealthNonFiniteCost: the iteration cost is NaN or ±Inf.
	HealthNonFiniteCost = "non_finite_cost"
	// HealthNonFiniteGrad: the gradient norm is NaN or ±Inf.
	HealthNonFiniteGrad = "non_finite_gradient"
	// HealthStall: stallWindow consecutive iterations moved the cost by
	// less than stallEpsilon (relative) or took a zero time step.
	HealthStall = "stall"
	// HealthDivergence: the cost exceeds divergenceFactor × the minimum
	// cost of the previous divergenceWindow iterations.
	HealthDivergence = "divergence"
)

// HealthReason reports whether reason is one of the Health* codes.
func HealthReason(reason string) bool {
	switch reason {
	case HealthNonFiniteCost, HealthNonFiniteGrad, HealthStall, HealthDivergence:
		return true
	}
	return false
}

// The watchdog's fixed policy.
const (
	// stallWindow consecutive low-progress iterations flag a stall.
	stallWindow = 8
	// stallEpsilon is the relative per-iteration cost improvement below
	// which an iteration counts as low-progress.
	stallEpsilon = 1e-9
	// divergenceWindow is the number of previous iterations whose
	// minimum cost the current cost is compared against.
	divergenceWindow = 10
	// divergenceFactor flags divergence when
	// cost > divergenceFactor × min(cost over the window).
	divergenceFactor = 10
)

// Watchdog is the one numerical-health rule of the repository. A
// diverging or NaN-poisoned run otherwise burns its whole iteration
// budget silently; the solve driver runs every iteration's cost,
// gradient norm and time step through a watchdog and stops the run on
// its first verdict, and analyze replays traced iterations through the
// same rule, so live and offline verdicts cannot disagree.
//
// It is stateful (sliding windows) and owned by a single run, so it is
// not safe for concurrent use. Observe performs no allocations,
// keeping the instrumented iteration path allocation-free.
type Watchdog struct {
	prevCost float64
	hasPrev  bool
	stallRun int
	window   []float64 // ring buffer of recent costs; nil without the windowed checks
	winLen   int
	winNext  int
}

// NewWatchdog builds a watchdog for one run (or one level of a
// coarse-to-fine run). windows enables the stall and divergence checks;
// without them only non-finite costs and gradients are flagged — for
// methods whose successive costs sum different corner sets and so are
// not comparable across iterations.
func NewWatchdog(windows bool) *Watchdog {
	w := &Watchdog{}
	if windows {
		w.window = make([]float64, divergenceWindow)
	}
	return w
}

// Observe judges one iteration from its cost, gradient norm and time
// step and returns its health reason code, "" when healthy. Checks run
// in severity order (non-finite, divergence, stall); the first that
// trips wins.
func (w *Watchdog) Observe(cost, gradNorm, timeStep float64) string {
	switch {
	case math.IsNaN(cost) || math.IsInf(cost, 0):
		return HealthNonFiniteCost
	case math.IsNaN(gradNorm) || math.IsInf(gradNorm, 0):
		return HealthNonFiniteGrad
	case w.window == nil:
		return ""
	}
	return w.observeFinite(cost, timeStep)
}

// WatchdogState is the serialisable snapshot of a watchdog's sliding
// windows, captured into solver checkpoints so a resumed run issues the
// same verdicts an uninterrupted one would.
type WatchdogState struct {
	PrevCost float64
	HasPrev  bool
	StallRun int
	Window   []float64
	WinLen   int
	WinNext  int
}

// State captures the watchdog's mutable state. The window is cloned.
func (w *Watchdog) State() WatchdogState {
	return WatchdogState{
		PrevCost: w.prevCost,
		HasPrev:  w.hasPrev,
		StallRun: w.stallRun,
		Window:   append([]float64(nil), w.window...),
		WinLen:   w.winLen,
		WinNext:  w.winNext,
	}
}

// Restore loads a captured state into the watchdog. A state captured
// with a different window length is truncated or zero-padded to fit.
func (w *Watchdog) Restore(st WatchdogState) {
	w.prevCost = st.PrevCost
	w.hasPrev = st.HasPrev
	w.stallRun = st.StallRun
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
	// divergenceWindow costs (before admitting the current one, so a
	// single explosive jump is caught immediately).
	if w.winLen > 0 {
		min := w.window[0]
		for _, c := range w.window[1:w.winLen] {
			if c < min {
				min = c
			}
		}
		if min > 0 && cost > divergenceFactor*min {
			reason = HealthDivergence
		}
	}
	w.window[w.winNext] = cost
	w.winNext = (w.winNext + 1) % len(w.window)
	if w.winLen < len(w.window) {
		w.winLen++
	}
	// Stall: consecutive iterations with negligible relative improvement
	// (or a zero step, which means the front cannot move at all).
	if reason == "" {
		stalled := timeStep == 0
		if w.hasPrev && !stalled {
			denom := math.Abs(w.prevCost)
			if denom < 1 {
				denom = 1
			}
			stalled = (w.prevCost-cost)/denom < stallEpsilon
		}
		if stalled {
			w.stallRun++
		} else {
			w.stallRun = 0
		}
		if w.stallRun >= stallWindow {
			reason = HealthStall
			// Re-arm, so a replay that keeps observing past a verdict
			// flags the next full window, not every later iteration.
			w.stallRun = 0
		}
	}
	w.prevCost, w.hasPrev = cost, true
	return reason
}
