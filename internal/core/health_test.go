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
	hp := obs.DefaultHealthPolicy()
	opts.Health = &hp
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

// TestWatchdogNonAbortingPolicy keeps the run going but still traces the
// unhealthy iterations.
func TestWatchdogNonAbortingPolicy(t *testing.T) {
	sim := newTestSim(t, 2)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 5
	opts.PVBWeight = 0
	hp := obs.DefaultHealthPolicy()
	hp.AbortOnUnhealthy = false
	opts.Health = &hp
	sim.SetSink(sink, "")

	res := runOpts(t, sim, nanTarget(64), opts)
	if res.Aborted || res.AbortReason != "" {
		t.Fatalf("non-aborting policy aborted the run: %+v", res)
	}
	// The run may still stop early on its own (the all-NaN velocity
	// reads as a zero front speed), but every iteration that did run
	// must carry a health event.
	count := 0
	for _, e := range sink.Events() {
		if e.Type == obs.EventHealth {
			count++
		}
	}
	if count != res.Iterations || count == 0 {
		t.Fatalf("health events = %d, want one per executed iteration (%d)", count, res.Iterations)
	}
}

// TestWatchdogHealthyRunUntouched: a clean optimization under the
// default policy must not trip, abort, or change the result shape.
func TestWatchdogHealthyRunUntouched(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 8
	hp := obs.DefaultHealthPolicy()
	opts.Health = &hp

	res := runOpts(t, sim, crossTarget(64), opts)
	if res.Aborted || res.AbortReason != "" {
		t.Fatalf("healthy run flagged: %+v", res)
	}
	if res.Iterations == 0 || res.Mask == nil {
		t.Fatalf("degenerate result: %+v", res)
	}
}
