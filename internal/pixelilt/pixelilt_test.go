package pixelilt

import (
	"context"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

func newTestSim(t *testing.T, kernels int) *litho.Simulator {
	t.Helper()
	cfg := litho.DefaultConfig(64, 32)
	cfg.Optics.Kernels = kernels
	s, err := litho.NewSimulator(cfg, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rectTarget(n, w, h int) *grid.Field {
	f := grid.NewField(n, n)
	x0, y0 := (n-w)/2, (n-h)/2
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			f.Set(x, y, 1)
		}
	}
	return f
}

func TestVariantNames(t *testing.T) {
	names := map[Variant]string{
		MosaicFast:  "MOSAIC_fast",
		MosaicExact: "MOSAIC_exact",
		RobustOPC:   "robust OPC",
		PVOPC:       "PVOPC",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d: name %q, want %q", v, v.String(), want)
		}
	}
	if Variant(42).String() != "Variant(42)" {
		t.Error("unknown variant formatting")
	}
	if len(Variants) != 4 {
		t.Error("Variants list incomplete")
	}
}

func TestDefaultOptionsValid(t *testing.T) {
	for _, v := range Variants {
		if err := DefaultOptions(v).Validate(); err != nil {
			t.Errorf("%v: invalid defaults: %v", v, err)
		}
	}
}

func TestOptionsValidateRejects(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.MaxIter = 0 },
		func(o *Options) { o.PVBWeight = -1 },
		func(o *Options) { o.PVBWeight = math.NaN() },
		func(o *Options) { o.PVBWeight = math.Inf(1) },
	}
	for i, mut := range bad {
		o := DefaultOptions(MosaicExact)
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCornerPlanSchedules(t *testing.T) {
	// MOSAIC_fast cycles one corner per iteration.
	fast := DefaultOptions(MosaicFast)
	for i := 0; i < 6; i++ {
		corners, _ := fast.cornerPlan(i)
		if len(corners) != 1 {
			t.Fatalf("fast iter %d simulates %d corners", i, len(corners))
		}
	}
	c0, _ := fast.cornerPlan(0)
	c1, _ := fast.cornerPlan(1)
	c2, _ := fast.cornerPlan(2)
	if c0[0] != litho.Nominal || c1[0] != litho.Outer || c2[0] != litho.Inner {
		t.Fatal("fast cycle order wrong")
	}

	// MOSAIC_exact simulates all three corners always.
	exact := DefaultOptions(MosaicExact)
	corners, weights := exact.cornerPlan(7)
	if len(corners) != 3 || weights[0] != 1 {
		t.Fatal("exact plan wrong")
	}

	// Robust OPC never simulates the nominal corner.
	robust := DefaultOptions(RobustOPC)
	for i := 0; i < 4; i++ {
		corners, _ := robust.cornerPlan(i)
		for _, c := range corners {
			if c == litho.Nominal {
				t.Fatal("robust OPC must not simulate the nominal corner")
			}
		}
		if len(corners) != 2 {
			t.Fatal("robust OPC must simulate exactly 2 corners")
		}
	}

	// PVOPC: nominal-only early, full late.
	pv := DefaultOptions(PVOPC)
	early, _ := pv.cornerPlan(0)
	late, _ := pv.cornerPlan(pv.MaxIter - 1)
	if len(early) != 1 || early[0] != litho.Nominal {
		t.Fatal("PVOPC phase 1 must be nominal-only")
	}
	if len(late) != 3 {
		t.Fatal("PVOPC phase 2 must simulate all corners")
	}
}

func TestOptimizeReducesCostAllVariants(t *testing.T) {
	target := rectTarget(64, 24, 16)
	for _, v := range Variants {
		sim := newTestSim(t, 3)
		opts := DefaultOptions(v)
		opts.MaxIter = 12
		res, err := Optimize(context.Background(), sim, target, opts, nil)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Iterations != 12 {
			t.Fatalf("%v: iterations %d", v, res.Iterations)
		}
		// Compare like-for-like iterations (same corner plan) at the
		// start and near the end of the schedule.
		var first, last float64 = -1, -1
		for _, h := range res.History {
			c, _ := opts.cornerPlan(h.Iter)
			c0, _ := opts.cornerPlan(0)
			if len(c) == len(c0) && c[0] == c0[0] {
				if first < 0 {
					first = h.Cost
				}
				last = h.Cost
			}
		}
		if !(last < first) {
			t.Errorf("%v: cost did not decrease (%g → %g)", v, first, last)
		}
		// Mask sanity.
		for _, m := range res.Mask.Data {
			if m != 0 && m != 1 {
				t.Fatalf("%v: non-binary mask value %g", v, m)
			}
		}
		if res.Mask.Sum() == 0 {
			t.Fatalf("%v: empty mask", v)
		}
	}
}

func TestCornerSimAccounting(t *testing.T) {
	target := rectTarget(64, 20, 20)
	sim := newTestSim(t, 2)

	fast := DefaultOptions(MosaicFast)
	fast.MaxIter = 9
	rf, err := Optimize(context.Background(), sim, target, fast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Evals != 9 {
		t.Fatalf("fast corner sims = %d, want 9", rf.Evals)
	}

	exact := DefaultOptions(MosaicExact)
	exact.MaxIter = 9
	re, err := Optimize(context.Background(), sim, target, exact, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Evals != 27 {
		t.Fatalf("exact corner sims = %d, want 27", re.Evals)
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	sim := newTestSim(t, 2)
	if _, err := Optimize(context.Background(), sim, grid.NewField(32, 32), DefaultOptions(MosaicFast), nil); err == nil {
		t.Fatal("mismatched target accepted")
	}
	o := DefaultOptions(MosaicFast)
	o.MaxIter = 0
	if _, err := Optimize(context.Background(), sim, rectTarget(64, 8, 8), o, nil); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	target := rectTarget(64, 24, 12)
	opts := DefaultOptions(PVOPC)
	opts.MaxIter = 8
	a, err := Optimize(context.Background(), newTestSim(t, 2), target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(context.Background(), newTestSim(t, 2), target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mask.Equal(b.Mask, 0) || !a.Gray.Equal(b.Gray, 0) {
		t.Fatal("baseline optimization must be deterministic")
	}
}

// TestGrayMaskConsistentWithBinary: both masks are those of the
// returned θ, also when the watchdog aborts a coarse level and θ
// arrives lifted to full resolution.
func TestGrayMaskConsistentWithBinary(t *testing.T) {
	// No relative improvement reaches 2, so the watchdog stops the run
	// at its second iteration, on the coarse level.
	stalls := DefaultOptions(MosaicExact)
	stalls.MaxIter = 8
	stalls.MultiResFactor = 2
	stalls.Health = &obs.HealthPolicy{StallWindow: 1, StallEpsilon: 2, AbortOnUnhealthy: true}
	for _, tc := range []struct {
		name    string
		opts    Options
		aborted bool
	}{
		{"MOSAIC_fast", DefaultOptions(MosaicFast), false},
		{"coarse abort", stalls, true},
	} {
		res, err := Optimize(context.Background(), newTestSim(t, 2), rectTarget(64, 20, 14), tc.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted != tc.aborted || (tc.aborted && res.Iterations != 2) || res.State.W != 64 {
			t.Fatalf("%s: aborted=%v after %d iterations, θ %d px; want aborted=%v at 64 px", tc.name, res.Aborted, res.Iterations, res.State.W, tc.aborted)
		}
		for i := range res.Gray.Data {
			if (res.Gray.Data[i] > 0.5) != (res.Mask.Data[i] == 1) {
				t.Fatalf("%s: binary mask must be the gray mask thresholded at 1/2", tc.name)
			}
		}
		gray, mask := masksFromTheta(res.State)
		for i := range gray.Data {
			if math.Float64bits(res.Gray.Data[i]) != math.Float64bits(gray.Data[i]) || math.Float64bits(res.Mask.Data[i]) != math.Float64bits(mask.Data[i]) {
				t.Fatalf("%s: pixel %d: masks %v/%v, masksFromTheta(State) gives %v/%v", tc.name, i, res.Gray.Data[i], res.Mask.Data[i], gray.Data[i], mask.Data[i])
			}
		}
	}
}

// TestExactPlanRunsOneCornerPass: MOSAIC_exact simulates its three
// corners in one litho call per iteration, while Evals still counts
// three conditions.
func TestExactPlanRunsOneCornerPass(t *testing.T) {
	sink := &obs.CollectorSink{}
	opts := DefaultOptions(MosaicExact)
	opts.MaxIter = 3
	sim := newTestSim(t, 2)
	sim.SetSink(sink, "")
	res, err := Optimize(context.Background(), sim, rectTarget(64, 20, 20), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 9 {
		t.Fatalf("corner sims = %d, want 9", res.Evals)
	}
	calls := map[string]int{}
	for _, e := range sink.Events() {
		if e.Type == obs.EventCorner {
			calls[e.Corner]++
		}
	}
	if len(calls) != 1 || calls["nominal+outer+inner"] != 3 {
		t.Fatalf("corner calls = %v, want nominal+outer+inner once per iteration", calls)
	}
}
