package obs

import (
	"math"
	"testing"
)

func TestWatchdogNonFinite(t *testing.T) {
	w := NewWatchdog(true)
	if r := w.Observe(10, 1, 0.5); r != "" {
		t.Fatalf("healthy iteration flagged: %q", r)
	}
	if r := w.Observe(math.NaN(), 1, 0.5); r != HealthNonFiniteCost {
		t.Fatalf("NaN cost verdict = %q", r)
	}
	if r := w.Observe(10, math.Inf(1), 0.5); r != HealthNonFiniteGrad {
		t.Fatalf("Inf gradient verdict = %q", r)
	}
	// Without the windowed checks the non-finite ones still run.
	nw := NewWatchdog(false)
	if r := nw.Observe(math.Inf(-1), 1, 0.5); r != HealthNonFiniteCost {
		t.Fatalf("windowless -Inf cost verdict = %q", r)
	}
	if r := nw.Observe(10, math.NaN(), 0.5); r != HealthNonFiniteGrad {
		t.Fatalf("windowless NaN gradient verdict = %q", r)
	}
	for _, r := range []string{HealthNonFiniteCost, HealthNonFiniteGrad, HealthStall, HealthDivergence} {
		if !HealthReason(r) {
			t.Fatalf("HealthReason(%q) = false", r)
		}
	}
	if HealthReason("") || HealthReason("stalled") {
		t.Fatal("HealthReason accepts a code the watchdog never returns")
	}
}

func TestWatchdogDivergence(t *testing.T) {
	w := NewWatchdog(true)
	for i, c := range []float64{4, 3, 2} {
		if r := w.Observe(c, 1, 0.5); r != "" {
			t.Fatalf("iter %d flagged: %q", i, r)
		}
	}
	// 2 is the window minimum; 25 > 10×2 diverges.
	if r := w.Observe(25, 1, 0.5); r != HealthDivergence {
		t.Fatalf("divergence verdict = %q", r)
	}
	// Moderate growth below the factor stays healthy.
	w2 := NewWatchdog(true)
	for i, c := range []float64{4, 3, 2, 15, 19} {
		if r := w2.Observe(c, 1, 0.5); r != "" {
			t.Fatalf("iter %d (cost %g) flagged: %q", i, c, r)
		}
	}
	// The window is the previous divergenceWindow costs: a low cost
	// that has slid out of it no longer counts.
	w3 := NewWatchdog(true)
	w3.Observe(1, 1, 0.5)
	for i := 0; i < divergenceWindow; i++ {
		w3.Observe(50-float64(i), 1, 0.5)
	}
	if r := w3.Observe(11, 1, 0.5); r != "" {
		t.Fatalf("cost 11 judged against a minimum outside the window: %q", r)
	}
	// Without the windowed checks nothing diverges.
	nw := NewWatchdog(false)
	nw.Observe(1, 1, 0.5)
	if r := nw.Observe(1e6, 1, 0.5); r != "" {
		t.Fatalf("windowless watchdog flagged a jump: %q", r)
	}
}

func TestWatchdogStall(t *testing.T) {
	w := NewWatchdog(true)
	if r := w.Observe(100, 1, 0.5); r != "" {
		t.Fatalf("first iteration flagged: %q", r)
	}
	// stallWindow identical costs in a row are stallWindow stalled
	// iterations; one fewer is not yet a stall.
	for i := 1; i < stallWindow; i++ {
		if r := w.Observe(100, 1, 0.5); r != "" {
			t.Fatalf("stall flagged after %d stalled iterations", i)
		}
	}
	if r := w.Observe(100, 1, 0.5); r != HealthStall {
		t.Fatalf("stall verdict = %q", r)
	}
	// Progress re-arms the counter.
	if r := w.Observe(50, 1, 0.5); r != "" {
		t.Fatalf("progress after stall flagged: %q", r)
	}
	// A zero time step counts as stalled regardless of cost movement.
	w2 := NewWatchdog(true)
	var r string
	for i := 0; i < stallWindow; i++ {
		r = w2.Observe(float64(100-i), 1, 0)
	}
	if r != HealthStall {
		t.Fatalf("zero-step stall verdict = %q", r)
	}
	// Without the windowed checks nothing stalls.
	nw := NewWatchdog(false)
	for i := 0; i < 2*stallWindow; i++ {
		if r := nw.Observe(100, 1, 0); r != "" {
			t.Fatalf("windowless watchdog flagged a stall: %q", r)
		}
	}
}

func TestWatchdogObserveDoesNotAllocate(t *testing.T) {
	w := NewWatchdog(true)
	cost := 100.0
	if avg := testing.AllocsPerRun(200, func() {
		cost *= 0.99
		w.Observe(cost, 1, 0.5)
	}); avg != 0 {
		t.Fatalf("healthy Observe allocates %.1f objects/op, want 0", avg)
	}
}
