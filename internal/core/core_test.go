package core

import (
	"context"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
)

// FinalCost returns the total cost at the last iteration.
func (r *Result) FinalCost() float64 {
	if len(r.History) == 0 {
		return math.NaN()
	}
	return r.History[len(r.History)-1].Cost
}

// BestCost returns the lowest total cost seen during the run; for a
// single-resolution run it is the cost of the returned (keep-best)
// mask.
func (r *Result) BestCost() float64 {
	if len(r.History) == 0 {
		return math.NaN()
	}
	best := r.History[0].Cost
	for _, h := range r.History[1:] {
		if h.Cost < best {
			best = h.Cost
		}
	}
	return best
}

// newTestSim builds a 64-px simulator (32 nm/px, 2048 nm field) with few
// kernels so full optimization runs stay fast.
func newTestSim(t *testing.T, kernels int) *litho.Simulator {
	t.Helper()
	return newTestSimOn(t, kernels, engine.CPU())
}

// newTestSimOn is newTestSim on the given engine.
func newTestSimOn(t *testing.T, kernels int, eng *engine.Engine) *litho.Simulator {
	t.Helper()
	cfg := litho.DefaultConfig(64, 32)
	cfg.Optics.Kernels = kernels
	s, err := litho.NewSimulator(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crossTarget builds a plus-shaped target — corners make it a
// non-trivial OPC case.
func crossTarget(n int) *grid.Field {
	f := grid.NewField(n, n)
	c := n / 2
	for y := c - 4; y < c+4; y++ {
		for x := c - 14; x < c+14; x++ {
			f.Set(x, y, 1)
		}
	}
	for y := c - 14; y < c+14; y++ {
		for x := c - 4; x < c+4; x++ {
			f.Set(x, y, 1)
		}
	}
	return f
}

func runOpts(t *testing.T, sim *litho.Simulator, target *grid.Field, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.MaxIter = 0 },
		func(o *Options) { o.Tolerance = -1 },
		func(o *Options) { o.PVBWeight = -0.5 },
		func(o *Options) { o.SnapshotEvery = -2 },
		func(o *Options) { o.Tolerance = math.NaN() },
		func(o *Options) { o.Tolerance = math.Inf(1) },
		func(o *Options) { o.PVBWeight = math.NaN() },
		func(o *Options) { o.PVBWeight = math.Inf(1) },
	}
	for i, mut := range bad {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsShapeMismatch(t *testing.T) {
	sim := newTestSim(t, 2)
	if _, err := newOptimizer(sim, grid.NewField(32, 32), DefaultOptions(), true); err == nil {
		t.Fatal("mismatched target accepted")
	}
}

func TestOptimizationReducesCost(t *testing.T) {
	sim := newTestSim(t, 4)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 15
	res := runOpts(t, sim, target, opts)

	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	first := res.History[0].Cost
	best := res.BestCost()
	if !(best < first) {
		t.Fatalf("cost did not decrease: %g → %g", first, best)
	}
	// The optimization should cut the total cost substantially.
	if best > 0.8*first {
		t.Fatalf("cost reduction too small: %g → %g", first, best)
	}
}

// TestResultMaskIsBinary: the result is the keep-best iterate. Mask is
// the Eq. 6 mask of State, and simulating it again gives the lowest
// cost in History bit for bit, which the last ψ (one step past the last
// simulated iterate) does not.
func TestResultMaskIsBinary(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	for _, iters := range []int{5, 20, 40} {
		opts := DefaultOptions()
		opts.MaxIter = iters
		res := runOpts(t, sim, target, opts)
		for _, v := range res.Mask.Data {
			if v != 0 && v != 1 {
				t.Fatalf("%d iterations: mask value %g not binary", iters, v)
			}
		}
		if res.Mask.Sum() == 0 {
			t.Fatalf("%d iterations: optimized mask is empty", iters)
		}
		expectMaskOfState(t, res)
		if got, best := resimulatedCost(sim, target, res.Mask, opts.PVBWeight), res.BestCost(); math.Float64bits(got) != math.Float64bits(best) {
			t.Fatalf("%d iterations: the mask's cost %v, want the lowest history cost %v", iters, got, best)
		}
	}
}

// expectMaskOfState requires res.Mask to be MaskFromPsi(res.State) bit
// for bit.
func expectMaskOfState(t *testing.T, res *Result) {
	t.Helper()
	want := grid.NewFieldLike(res.State)
	levelset.MaskFromPsi(want, res.State)
	for i, v := range want.Data {
		if math.Float64bits(res.Mask.Data[i]) != math.Float64bits(v) {
			t.Fatalf("mask pixel %d is %v, MaskFromPsi(State) gives %v", i, res.Mask.Data[i], v)
		}
	}
}

// resimulatedCost simulates the three corners of mask and returns the
// total cost (Eq. 13), summed as the optimizer sums it.
func resimulatedCost(sim *litho.Simulator, target, mask *grid.Field, w float64) float64 {
	spec := grid.NewCField(mask.W, mask.H)
	sim.MaskSpectrumInto(spec, mask)
	c := []litho.Corner{{Cond: litho.Nominal, Weight: 1}, {Cond: litho.Outer, Weight: w}, {Cond: litho.Inner, Weight: w}}
	sim.ForwardCorners(spec, target, c)
	return c[litho.Nominal].Cost + w*(c[litho.Outer].Cost+c[litho.Inner].Cost)
}

func TestHistoryTraceConsistency(t *testing.T) {
	sim := newTestSim(t, 3)
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.PVBWeight = 0.5
	res := runOpts(t, sim, crossTarget(64), opts)
	for i, h := range res.History {
		if h.Iter != i {
			t.Fatalf("history iter %d labelled %d", i, h.Iter)
		}
		want := h.CostNominal + 0.5*h.CostPVB
		if math.Abs(h.Cost-want) > 1e-9*(1+want) {
			t.Fatalf("iter %d: total %g ≠ nom + w·pvb %g", i, h.Cost, want)
		}
		if h.CostPVB <= 0 {
			t.Fatalf("iter %d: PVB cost %g, want > 0 with w_pvb > 0", i, h.CostPVB)
		}
		if h.MaxVelocity < 0 || h.TimeStep < 0 {
			t.Fatalf("iter %d: negative velocity/step", i)
		}
	}
}

func TestPVBWeightZeroSkipsCorners(t *testing.T) {
	sim := newTestSim(t, 3)
	opts := DefaultOptions()
	opts.MaxIter = 3
	opts.PVBWeight = 0
	res := runOpts(t, sim, crossTarget(64), opts)
	for _, h := range res.History {
		if h.CostPVB != 0 {
			t.Fatal("PVB cost computed despite zero weight")
		}
	}
}

func TestConvergenceOnHugeTolerance(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 30
	opts.Tolerance = 1e12 // any velocity counts as converged
	res := runOpts(t, sim, crossTarget(64), opts)
	if !res.Converged {
		t.Fatal("must converge on absurd tolerance")
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
}

func TestSnapshotsRecorded(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 9
	opts.SnapshotEvery = 4
	res := runOpts(t, sim, crossTarget(64), opts)
	if len(res.Snapshots) != 3 { // iters 0, 4, 8
		t.Fatalf("snapshots = %d, want 3", len(res.Snapshots))
	}
	for _, s := range res.Snapshots {
		if s.Mask == nil || s.Mask.Sum() == 0 {
			t.Fatal("empty snapshot")
		}
	}
	if res.Snapshots[0].Iter != 0 || res.Snapshots[2].Iter != 8 {
		t.Fatalf("snapshot iters wrong: %d, %d", res.Snapshots[0].Iter, res.Snapshots[2].Iter)
	}
	// The initial snapshot is the target-shaped mask.
	if !res.Snapshots[0].Mask.Equal(crossTarget(64), 0) {
		t.Fatal("first snapshot must be the initial (target) mask")
	}
}

func TestCGAndGDBothConverge(t *testing.T) {
	// The quantitative CG-vs-GD comparison is an experiment (see the
	// ablation bench); here we pin the invariants: both variants must
	// reduce the cost by a large factor, and the PRP momentum must not
	// destabilise the run.
	target := crossTarget(64)

	run := func(useCG bool) (first, best float64) {
		sim := newTestSim(t, 4)
		opts := DefaultOptions()
		opts.MaxIter = 15
		opts.UseCG = useCG
		res := runOpts(t, sim, target, opts)
		return res.History[0].Cost, res.BestCost()
	}
	cgFirst, cg := run(true)
	gdFirst, gd := run(false)
	if cg > 0.2*cgFirst {
		t.Fatalf("CG reduced cost only %g → %g", cgFirst, cg)
	}
	if gd > 0.2*gdFirst {
		t.Fatalf("GD reduced cost only %g → %g", gdFirst, gd)
	}
	if cg > 3*gd {
		t.Fatalf("CG cost %g wildly worse than GD %g", cg, gd)
	}
}

func TestReinitDoesNotBreakOptimization(t *testing.T) {
	sim := newTestSim(t, 3)
	opts := DefaultOptions()
	opts.MaxIter = 25 // reinitialises after iterations 9 and 19
	res := runOpts(t, sim, crossTarget(64), opts)
	if res.BestCost() >= res.History[0].Cost {
		t.Fatal("cost increased despite reinitialisation")
	}
}

func TestDeterministicRuns(t *testing.T) {
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 6
	a := runOpts(t, newTestSim(t, 3), target, opts)
	b := runOpts(t, newTestSim(t, 3), target, opts)
	if !a.Mask.Equal(b.Mask, 0) {
		t.Fatal("optimization must be deterministic")
	}
	if a.FinalCost() != b.FinalCost() || a.BestCost() != b.BestCost() {
		t.Fatal("cost trace must be deterministic")
	}
}

func TestEngineEquivalentRuns(t *testing.T) {
	// The concurrent three-corner fan-out (engine.Split + Parallel) must
	// reproduce the serial reference bit-for-bit: same mask, same cost
	// trace, at every worker count.
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 5
	opts.PVBWeight = 0.5 // exercise the corner workers

	run := func(workers int) *Result {
		cfg := litho.DefaultConfig(64, 32)
		cfg.Optics.Kernels = 3
		sim, err := litho.NewSimulator(cfg, engine.New("eq", workers))
		if err != nil {
			t.Fatal(err)
		}
		return runOpts(t, sim, target, opts)
	}

	ref := run(1)
	for _, workers := range []int{3, 8} {
		got := run(workers)
		if !got.Mask.Equal(ref.Mask, 0) {
			t.Fatalf("workers=%d: mask differs from serial reference", workers)
		}
		if len(got.History) != len(ref.History) {
			t.Fatalf("workers=%d: history length %d vs %d", workers, len(got.History), len(ref.History))
		}
		for i := range got.History {
			g, r := got.History[i], ref.History[i]
			if g.CostNominal != r.CostNominal || g.CostPVB != r.CostPVB || g.Cost != r.Cost {
				t.Fatalf("workers=%d iter %d: cost trace (%v,%v,%v) vs (%v,%v,%v)",
					workers, i, g.CostNominal, g.CostPVB, g.Cost,
					r.CostNominal, r.CostPVB, r.Cost)
			}
		}
	}
}

func TestFinalCostEmptyHistory(t *testing.T) {
	r := &Result{}
	if !math.IsNaN(r.FinalCost()) || !math.IsNaN(r.BestCost()) {
		t.Fatal("costs of empty history must be NaN")
	}
}

func TestPRPCoefficient(t *testing.T) {
	prpCoefficient := func(g, gPrev *grid.Field) float64 {
		return prpCoefficient(g.Norm2(), g.Dot(gPrev), gPrev.Norm2())
	}
	g := grid.FieldFromData(2, 1, []float64{3, 4})
	same := g.Clone()
	// Identical successive gradients: λ = (‖g‖²−‖g‖²)/‖g‖² = 0.
	if got := prpCoefficient(g, same); got != 0 {
		t.Fatalf("λ for identical gradients = %g, want 0", got)
	}
	// Orthogonal gradients: λ = ‖g‖²/‖gPrev‖².
	gPrev := grid.FieldFromData(2, 1, []float64{5, 0})
	gNew := grid.FieldFromData(2, 1, []float64{0, 2})
	if got := prpCoefficient(gNew, gPrev); math.Abs(got-4.0/25) > 1e-12 {
		t.Fatalf("λ = %g, want %g", got, 4.0/25)
	}
	// Zero previous gradient: safeguarded to 0.
	zero := grid.NewField(2, 1)
	if got := prpCoefficient(gNew, zero); got != 0 {
		t.Fatalf("λ with zero denominator = %g, want 0", got)
	}
	// Negative PRP value is clamped (PRP+).
	gOpp := grid.FieldFromData(2, 1, []float64{10, 0})
	small := grid.FieldFromData(2, 1, []float64{1, 0})
	// λ_raw = (1 − 10)/100 < 0 → 0.
	if got := prpCoefficient(small, gOpp); got != 0 {
		t.Fatalf("negative λ not clamped: %g", got)
	}
}

func TestLineSearchImprovesOrMatches(t *testing.T) {
	target := crossTarget(64)
	run := func(ls bool) float64 {
		sim := newTestSim(t, 3)
		opts := DefaultOptions()
		opts.MaxIter = 10
		opts.LineSearch = ls
		return runOpts(t, sim, target, opts).BestCost()
	}
	plain := run(false)
	searched := run(true)
	// The exact line search must not be substantially worse; typically
	// it converges faster per iteration.
	if searched > 1.5*plain {
		t.Fatalf("line search cost %g much worse than plain %g", searched, plain)
	}
}

func TestLineSearchRecordsChosenStep(t *testing.T) {
	sim := newTestSim(t, 2)
	opts := DefaultOptions()
	opts.MaxIter = 4
	opts.LineSearch = true
	opts.AdaptiveStep = false
	res := runOpts(t, sim, crossTarget(64), opts)
	for _, h := range res.History {
		if h.TimeStep < 0 {
			t.Fatal("negative recorded step")
		}
	}
}

func TestInitialMaskWarmStart(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	// Warm start from a dilated target.
	seed := grid.NewField(64, 64)
	psi0 := levelset.SignedDistance(target)
	for i, v := range psi0.Data {
		if v <= 1.5 {
			seed.Data[i] = 1
		}
	}
	opts := DefaultOptions()
	opts.MaxIter = 6
	opts.SnapshotEvery = 100 // only iteration 0
	opts.InitialMask = seed
	res := runOpts(t, sim, target, opts)
	if !res.Snapshots[0].Mask.Equal(seed, 0) {
		t.Fatal("warm start not used as iteration-0 mask")
	}
	// Wrong-shape warm start must be rejected at Run time.
	opts.InitialMask = grid.NewField(32, 32)
	if _, err := Run(context.Background(), sim, target, opts, nil); err == nil {
		t.Fatal("mismatched initial mask accepted")
	}
}
