package core

import (
	"math"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// nanTarget is a plus-shaped target poisoned with NaN values, which
// makes the fidelity cost Σ(R−R*)² non-finite from the first iteration —
// the injection path for watchdog tests.
func nanTarget(n int) *grid.Field {
	f := crossTarget(n)
	c := n / 2
	f.Set(c, c, math.NaN())
	return f
}

// TestWatchdogAbortsNaNRun injects a NaN cost and checks the watchdog
// emits a typed health event and terminates the run within the first
// iteration (the ISSUE acceptance criterion; run under -race via the
// package's standard race target).
func TestWatchdogAbortsNaNRun(t *testing.T) {
	sim := newTestSim(t, 2)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 20
	opts.PVBWeight = 0 // nominal-only: the NaN comes from the target
	opts.Health = true
	sim.SetSink(sink, "nan-run")

	res := runOpts(t, sim, nanTarget(64), opts)
	if !res.Aborted {
		t.Fatalf("NaN run not aborted: %d iterations, aborted=%v", res.Iterations, res.Aborted)
	}
	if res.AbortReason != obs.HealthNonFiniteCost {
		t.Fatalf("abort reason = %q, want %q", res.AbortReason, obs.HealthNonFiniteCost)
	}
	if res.Iterations != 1 {
		t.Fatalf("run terminated after %d iterations, want 1 (within the poisoned iteration)", res.Iterations)
	}
	var health []obs.Event
	for _, e := range sink.Events() {
		if e.Type == obs.EventHealth {
			health = append(health, e)
		}
	}
	if len(health) != 1 {
		t.Fatalf("health events = %d, want 1", len(health))
	}
	if h := health[0]; h.Msg != obs.HealthNonFiniteCost || h.Trace != "nan-run" || h.Iter != 0 {
		t.Fatalf("health event = %+v", h)
	}
	if !math.IsNaN(health[0].Cost) {
		t.Fatalf("health event cost = %g, want NaN", health[0].Cost)
	}
}

// TestWatchdogHealthyRunUntouched: a clean optimization under the
// watchdog must not trip, abort, or change the result shape.
func TestWatchdogHealthyRunUntouched(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.Health = true

	res := runOpts(t, sim, crossTarget(64), opts)
	if res.Aborted || res.AbortReason != "" {
		t.Fatalf("healthy run flagged: %+v", res)
	}
	if res.Iterations == 0 || res.Mask == nil {
		t.Fatalf("degenerate result: %+v", res)
	}
}
