package obs

import (
	"math"
	"testing"
)

func TestWatchdogNonFinite(t *testing.T) {
	var c CollectorSink
	w := NewWatchdog(DefaultHealthPolicy(), &c, "s1")
	if v := w.Observe(0, 10, 1, 0.5); !v.Healthy {
		t.Fatalf("healthy iteration flagged: %+v", v)
	}
	v := w.Observe(1, math.NaN(), 1, 0.5)
	if v.Healthy || v.Reason != HealthNonFiniteCost || !v.Abort {
		t.Fatalf("NaN cost verdict = %+v", v)
	}
	v = w.Observe(2, 10, math.Inf(1), 0.5)
	if v.Healthy || v.Reason != HealthNonFiniteGrad {
		t.Fatalf("Inf gradient verdict = %+v", v)
	}
	events := c.Events()
	if len(events) != 2 {
		t.Fatalf("health events = %d, want 2", len(events))
	}
	for _, e := range events {
		if e.Type != EventHealth || e.Trace != "s1" {
			t.Fatalf("bad health event: %+v", e)
		}
	}
	if events[0].Msg != HealthNonFiniteCost || events[1].Msg != HealthNonFiniteGrad {
		t.Fatalf("reasons = %q, %q", events[0].Msg, events[1].Msg)
	}
	if w.trips != 2 {
		t.Fatalf("trips = %d, want 2", w.trips)
	}
}

func TestWatchdogDivergence(t *testing.T) {
	p := HealthPolicy{DivergenceWindow: 5, DivergenceFactor: 10, AbortOnUnhealthy: true}
	w := NewWatchdog(p, nil, "")
	for i, c := range []float64{4, 3, 2} {
		if v := w.Observe(i, c, 1, 0.5); !v.Healthy {
			t.Fatalf("iter %d flagged: %+v", i, v)
		}
	}
	// 2 is the window minimum; 25 > 10×2 diverges.
	v := w.Observe(3, 25, 1, 0.5)
	if v.Healthy || v.Reason != HealthDivergence || !v.Abort {
		t.Fatalf("divergence verdict = %+v", v)
	}
	// Moderate growth below the factor stays healthy.
	w2 := NewWatchdog(p, nil, "")
	for i, c := range []float64{4, 3, 2, 15, 19} {
		if v := w2.Observe(i, c, 1, 0.5); !v.Healthy {
			t.Fatalf("iter %d (cost %g) flagged: %+v", i, c, v)
		}
	}
}

func TestWatchdogStall(t *testing.T) {
	p := HealthPolicy{StallWindow: 3, StallEpsilon: 1e-9}
	w := NewWatchdog(p, nil, "")
	if v := w.Observe(0, 100, 1, 0.5); !v.Healthy {
		t.Fatalf("first iteration flagged: %+v", v)
	}
	// Three identical costs in a row = three stalled iterations.
	var v Verdict
	for i := 1; i <= 3; i++ {
		v = w.Observe(i, 100, 1, 0.5)
	}
	if v.Healthy || v.Reason != HealthStall {
		t.Fatalf("stall verdict = %+v", v)
	}
	if v.Abort {
		t.Fatal("abort requested without AbortOnUnhealthy")
	}
	// Progress re-arms the counter.
	if v := w.Observe(4, 50, 1, 0.5); !v.Healthy {
		t.Fatalf("progress after stall flagged: %+v", v)
	}
	// A zero time step counts as stalled regardless of cost movement.
	w2 := NewWatchdog(p, nil, "")
	for i := 0; i < 2; i++ {
		w2.Observe(i, float64(100-i), 1, 0)
	}
	if v := w2.Observe(2, 97, 1, 0); v.Healthy || v.Reason != HealthStall {
		t.Fatalf("zero-step stall verdict = %+v", v)
	}
}

func TestWatchdogObserveDoesNotAllocate(t *testing.T) {
	var c CollectorSink
	w := NewWatchdog(HealthPolicy{CheckNonFinite: true, StallWindow: 4, DivergenceWindow: 6, DivergenceFactor: 10}, &c, "s1")
	cost := 100.0
	if avg := testing.AllocsPerRun(200, func() {
		cost *= 0.99
		w.Observe(1, cost, 1, 0.5)
	}); avg != 0 {
		t.Fatalf("healthy Observe allocates %.1f objects/op, want 0", avg)
	}
}
