package core

import (
	"context"
	"math"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// TestMultiResFactor1MatchesRun: factors 0 and 1 both run the one-level
// schedule — bit-identical masks and history.
func TestMultiResFactor1MatchesRun(t *testing.T) {
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 6

	plain := runOpts(t, newTestSim(t, 3), target, opts)

	for _, factor := range []int{0, 1} {
		opts.MultiResFactor = factor
		sched, err := Run(context.Background(), newTestSim(t, 3), target, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Mask.Data {
			if plain.Mask.Data[i] != sched.Mask.Data[i] {
				t.Fatalf("factor %d: mask differs at pixel %d", factor, i)
			}
		}
		if len(plain.History) != len(sched.History) {
			t.Fatalf("factor %d: history lengths %d vs %d", factor, len(plain.History), len(sched.History))
		}
		for i := range plain.History {
			if plain.History[i] != sched.History[i] {
				t.Fatalf("factor %d: iteration %d stats differ", factor, i)
			}
		}
	}
}

// TestMultiResSchedule drives a two-coarse-level schedule and checks the
// structural contract: one contiguous global iteration axis, the exact
// per-level budget split, full-resolution results, and level_switch
// events marking each grid hand-off.
func TestMultiResSchedule(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.MultiResFactor = 4
	opts.Tolerance = 0 // no early convergence exit: budgets must be exact
	sim.SetSink(sink, "sched")

	res, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 2 coarse levels × 2 iters + 4 fine iters = 8 total.
	if res.Iterations != 8 || len(res.History) != 8 {
		t.Fatalf("iterations = %d (history %d), want 8", res.Iterations, len(res.History))
	}
	for i, st := range res.History {
		if st.Iter != i {
			t.Fatalf("history[%d].Iter = %d, want a contiguous global axis", i, st.Iter)
		}
	}

	if res.Mask.W != 64 || res.State.W != 64 {
		t.Fatalf("result grids %d/%d px, want full resolution 64", res.Mask.W, res.State.W)
	}
	for _, v := range res.Mask.Data {
		if v != 0 && v != 1 {
			t.Fatalf("mask value %g not binary", v)
		}
	}
	if res.Mask.Sum() == 0 {
		t.Fatal("schedule produced an empty mask")
	}

	var switches []obs.Event
	for _, e := range sink.Events() {
		if e.Type == obs.EventLevelSwitch {
			switches = append(switches, e)
		}
	}
	want := []struct{ oldN, newN, iter int }{
		{16, 32, 2},
		{32, 64, 4},
	}
	if len(switches) != len(want) {
		t.Fatalf("level_switch events = %d, want %d", len(switches), len(want))
	}
	for i, w := range want {
		e := switches[i]
		if e.OldN != w.oldN || e.N != w.newN || e.Iter != w.iter {
			t.Fatalf("switch %d = %d->%d @%d, want %d->%d @%d",
				i, e.OldN, e.N, e.Iter, w.oldN, w.newN, w.iter)
		}
		if e.Trace != "sched" {
			t.Fatalf("switch %d trace = %q", i, e.Trace)
		}
	}
}

// TestMultiResConvergesNearBaseline: the schedule must land in the same
// cost basin as the full-resolution run — the point of coarse levels is
// speed, not a different answer.
func TestMultiResConvergesNearBaseline(t *testing.T) {
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 15

	base := runOpts(t, newTestSim(t, 4), target, opts)

	opts.MultiResFactor = 2
	sched, err := Run(context.Background(), newTestSim(t, 4), target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	bb, sb := base.BestCost(), sched.BestCost()
	if math.IsNaN(sb) {
		t.Fatal("schedule produced no finite cost")
	}
	// Allow modest slack: the coarse phase spends part of the budget at
	// lower resolution, but the final basin must match.
	if sb > 1.25*bb {
		t.Fatalf("schedule best cost %g vs baseline %g (>25%% worse)", sb, bb)
	}
}

// checkerTarget is a 2-px checkerboard: far below the resolution limit at
// the coarse pitch, so its coarse PV-band cost is in the hundreds.
func checkerTarget(n int) *grid.Field {
	f := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if (x/2+y/2)%2 == 0 {
				f.Set(x, y, 1)
			}
		}
	}
	return f
}

// TestMultiResWatchdogAbortsPoisonedCoarse: a non-finite cost during a
// COARSE level must trip the watchdog there, and the abort must surface
// at full resolution (the caller's grid), not the coarse one. Options
// must be finite, so the poison is an overflow: the largest finite PVB
// weight times checkerTarget's PV-band cost is +Inf.
func TestMultiResWatchdogAbortsPoisonedCoarse(t *testing.T) {
	sim := newTestSim(t, 2)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.MultiResFactor = 2
	opts.PVBWeight = math.MaxFloat64 // poisons cost from the first (coarse) iteration
	hp := obs.DefaultHealthPolicy()
	opts.Health = &hp
	sim.SetSink(sink, "nan-coarse")

	res, err := Run(context.Background(), sim, checkerTarget(64), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != obs.HealthNonFiniteCost {
		t.Fatalf("aborted=%v reason=%q, want non_finite_cost abort", res.Aborted, res.AbortReason)
	}
	if res.Iterations != 1 {
		t.Fatalf("poisoned schedule ran %d iterations, want 1", res.Iterations)
	}
	if res.Mask == nil || res.Mask.W != 64 || res.State == nil || res.State.W != 64 {
		t.Fatal("aborted coarse run must surface full-resolution mask and ψ")
	}
	expectMaskOfState(t, res)
	// No level_switch may fire: the schedule stopped inside level one.
	for _, e := range sink.Events() {
		if e.Type == obs.EventLevelSwitch {
			t.Fatal("aborted coarse level still emitted a level_switch")
		}
	}
}

// TestMultiResWatchdogAbortsPoisonedFineLevel: a NaN only visible at
// full resolution (the coarse target re-binarisation launders it) lets
// the coarse levels finish and trips the watchdog in the fine level;
// the combined history spans both.
func TestMultiResWatchdogAbortsPoisonedFineLevel(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 6
	opts.MultiResFactor = 2
	opts.PVBWeight = 0 // nominal-only: the NaN comes from the target
	opts.Tolerance = 0
	hp := obs.DefaultHealthPolicy()
	opts.Health = &hp

	res, err := Run(context.Background(), sim, nanTarget(64), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != obs.HealthNonFiniteCost {
		t.Fatalf("aborted=%v reason=%q, want non_finite_cost abort", res.Aborted, res.AbortReason)
	}
	// 3 clean coarse iterations + the first poisoned fine iteration.
	if res.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4 (3 coarse + 1 poisoned fine)", res.Iterations)
	}
	if res.Mask.W != 64 {
		t.Fatalf("result grid %d px, want 64", res.Mask.W)
	}
	expectMaskOfState(t, res)
}
