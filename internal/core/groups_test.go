package core

import (
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

// TestFocusGroupsEmitTwoCornerEvents: with the PV-band cost on, each
// iteration simulates two focus groups — nominal+outer on the
// best-focus bank and inner on the defocused one — so a trace carries
// exactly two corner events per iteration.
func TestFocusGroupsEmitTwoCornerEvents(t *testing.T) {
	sim := newTestSim(t, 3)
	sink := &obs.CollectorSink{}
	opts := DefaultOptions()
	opts.MaxIter = 4
	opts.Tolerance = 0
	opts.Sink = sink
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
	if len(seen) != 2 || seen["nominal+outer"] != iters || seen["inner"] != iters {
		t.Fatalf("corner events per group = %v, want nominal+outer and inner once per iteration", seen)
	}
}

// TestFocusGroupCostsMatchSeparateCorners: iteration 0's cost terms
// equal the ones separate per-corner Forward calls give on the same
// mask, bit for bit.
func TestFocusGroupCostsMatchSeparateCorners(t *testing.T) {
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

// TestZeroDefocusIsOneFocusGroup: grouping follows bank identity alone,
// so without a focus excursion all three corners share one SOCS pass.
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
	opts.Sink = sink
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
