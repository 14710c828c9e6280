package core

import (
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

// TestIterationEmitsOneCornerEvent: with the PV-band cost on, each
// iteration simulates nominal, outer and inner in one litho call, so a
// trace carries exactly one corner event per iteration, covering all
// three corners.
func TestIterationEmitsOneCornerEvent(t *testing.T) {
	sim := newTestSim(t, 3)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 4
	opts.Tolerance = 0
	sim.SetSink(sink, "")
	res := runOpts(t, sim, crossTarget(64), opts)

	seen := map[string]int{}
	iters := 0
	for _, e := range sink.Events() {
		switch e.Type {
		case obs.EventIteration:
			iters++
		case obs.EventCorner:
			if e.Name != "forward_gradient" {
				t.Fatalf("corner event %q, want forward_gradient", e.Name)
			}
			seen[e.Corner]++
		}
	}
	if iters != res.Iterations || iters != opts.MaxIter {
		t.Fatalf("%d iteration events for %d iterations", iters, res.Iterations)
	}
	if len(seen) != 1 || seen["nominal+outer+inner"] != iters {
		t.Fatalf("corner events = %v, want nominal+outer+inner once per iteration", seen)
	}
}

// TestCornerCostsMatchOneCornerForward: iteration 0's cost terms equal,
// bit for bit, the costs of one-corner Forward calls on the same mask
// summed at the resist sweep's chunk partition (CostAt).
func TestCornerCostsMatchOneCornerForward(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 1
	res := runOpts(t, sim, target, opts)

	n := sim.GridSize()
	mask := grid.NewField(n, n)
	levelset.MaskFromPsi(mask, levelset.SignedDistance(target))
	spec := grid.NewCField(n, n)
	sim.MaskSpectrumInto(spec, mask)
	cost := map[litho.Condition]float64{}
	for _, cond := range litho.AllConditions {
		imgs := litho.NewCornerImages(n)
		sim.Forward(imgs, spec, cond)
		cost[cond] = litho.CostAt(imgs.R, target)
	}
	h := res.History[0]
	if h.CostNominal != cost[litho.Nominal] {
		t.Fatalf("CostNominal %v, separate Forward %v", h.CostNominal, cost[litho.Nominal])
	}
	if want := cost[litho.Outer] + cost[litho.Inner]; h.CostPVB != want {
		t.Fatalf("CostPVB %v, separate Forward %v", h.CostPVB, want)
	}
}

// TestZeroDefocusIsOneFocusGroup: without a focus excursion all three
// corners share one kernel bank, and still run as one call per
// iteration.
func TestZeroDefocusIsOneFocusGroup(t *testing.T) {
	cfg := litho.DefaultConfig(64, 32)
	cfg.Optics.Kernels = 3
	cfg.DefocusNM = 0
	sim, err := litho.NewSimulator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 2
	opts.Tolerance = 0
	sim.SetSink(sink, "")
	runOpts(t, sim, crossTarget(64), opts)
	groups := 0
	for _, e := range sink.Events() {
		if e.Type != obs.EventCorner {
			continue
		}
		if e.Corner != "nominal+outer+inner" {
			t.Fatalf("corner event for %q, want one nominal+outer+inner group", e.Corner)
		}
		groups++
	}
	if groups != opts.MaxIter {
		t.Fatalf("%d group simulations in %d iterations", groups, opts.MaxIter)
	}
}

// TestComposedGradientMatchesFiniteDifference checks the gradient Eval
// takes from its one all-corner call against central finite differences of
// the composed objective J = nominal + w_pvb·(outer + inner) on a
// continuous mask, with the per-kernel fields on a reduced grid
// (128 px / 8 nm, m = 64).
func TestComposedGradientMatchesFiniteDifference(t *testing.T) {
	const n = 128
	cfg := litho.DefaultConfig(n, 8)
	cfg.Optics.Kernels = 3
	sim, err := litho.NewSimulator(cfg, engine.New("composed-test", 2))
	if err != nil {
		t.Fatal(err)
	}
	if m := sim.ReducedGrid(); m >= n {
		t.Fatalf("per-kernel grid %d is not reduced below %d", m, n)
	}
	target := crossTarget(n)
	opts := DefaultOptions()
	o, err := newOptimizer(sim, target, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Release()
	if len(o.corners) != 3 {
		t.Fatalf("%d corners, want nominal, outer and inner", len(o.corners))
	}

	// Soften the target into a continuous mask whose pixels sit in the
	// resist sigmoid's active range.
	mask := target.Clone()
	for i := range mask.Data {
		mask.Data[i] = 0.2 + 0.6*mask.Data[i]
	}
	objective := func(m *grid.Field) float64 {
		o.mask.CopyFrom(m)
		nom, pvb := o.simulate()
		return nom + opts.PVBWeight*pvb
	}
	objective(mask)
	grad := o.grad.Clone()
	if grad.MaxAbs() == 0 {
		t.Fatal("degenerate test: zero gradient")
	}

	const h = 1e-5
	c := n / 2
	for _, p := range [][2]int{{c, c}, {c - 14, c}, {c + 13, c + 3}, {c - 4, c - 14}, {c + 5, c + 5}, {c - 20, c}} {
		x, y := p[0], p[1]
		m := mask.Clone()
		m.Set(x, y, mask.At(x, y)+h)
		up := objective(m)
		m.Set(x, y, mask.At(x, y)-h)
		down := objective(m)
		fd := (up - down) / (2 * h)
		if an := grad.At(x, y); math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("gradient at (%d,%d): Eval %g vs finite difference %g", x, y, an, fd)
		}
	}
}
