package pixelilt

import (
	"context"

	"math"
	"testing"

	"lsopc/internal/obs"
)

// TestWatchdogAbortsNaNBaseline poisons the target with a NaN so the
// first iteration's cost is non-finite, and checks the watchdog emits a
// health event and stops the run within that iteration.
func TestWatchdogAbortsNaNBaseline(t *testing.T) {
	sim := newTestSim(t, 2)
	target := rectTarget(64, 24, 12)
	target.Set(32, 32, math.NaN())

	sink := &obs.CollectorSink{}
	opts := DefaultOptions(MosaicExact)
	opts.MaxIter = 20
	opts.Health = true
	sim.SetSink(sink, "nan-baseline")

	res, err := Optimize(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != obs.HealthNonFiniteCost {
		t.Fatalf("aborted=%v reason=%q, want abort on %s", res.Aborted, res.AbortReason, obs.HealthNonFiniteCost)
	}
	if res.Iterations != 1 {
		t.Fatalf("run terminated after %d iterations, want 1", res.Iterations)
	}
	count := 0
	for _, e := range sink.Events() {
		if e.Type == obs.EventHealth {
			count++
			if e.Msg != obs.HealthNonFiniteCost || e.Trace != "nan-baseline" {
				t.Fatalf("health event = %+v", e)
			}
		}
	}
	if count != 1 {
		t.Fatalf("health events = %d, want 1", count)
	}
}

// TestWatchdogCleanBaseline: a healthy baseline run under the watchdog
// completes without tripping.
func TestWatchdogCleanBaseline(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions(MosaicFast)
	opts.MaxIter = 6
	opts.Health = true

	res, err := Optimize(context.Background(), sim, rectTarget(64, 24, 12), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.AbortReason != "" {
		t.Fatalf("healthy baseline flagged: %+v", res)
	}
}
