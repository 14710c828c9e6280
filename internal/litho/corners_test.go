package litho

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// groupPath is one execution path of the forward+adjoint model: the
// per-kernel fields on the full grid (a 64 px / 32 nm grid, whose 2048 nm
// field puts the kernel band beyond any smaller grid) or on a reduced
// grid (128 px / 8 nm: a 1024 nm field, r = 15, m = 64), with or without
// resist diffusion.
type groupPath struct {
	name      string
	n         int
	pixelNM   float64
	reduced   bool
	diffusion float64
}

var groupPaths = []groupPath{
	{name: "f64-full", n: 64, pixelNM: 32},
	{name: "f64-full-diffusion", n: 64, pixelNM: 32, diffusion: 40},
	{name: "f64-reduced", n: 128, pixelNM: 8, reduced: true},
	{name: "f64-reduced-diffusion", n: 128, pixelNM: 8, reduced: true, diffusion: 40},
}

// relErr returns ‖a−b‖ / ‖a‖ (0 when both are zero).
func relErr(a, b *grid.Field) float64 {
	var num, den float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		num += d * d
		den += a.Data[i] * a.Data[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// groupSim builds a 4-kernel simulator on the given path and checks the
// path really runs on the grid it names.
func groupSim(t *testing.T, p groupPath) *Simulator {
	t.Helper()
	cfg := DefaultConfig(p.n, p.pixelNM)
	cfg.Optics.Kernels = 4
	cfg.DiffusionNM = p.diffusion
	s, err := NewSimulator(cfg, engine.New("group-test", 3))
	if err != nil {
		t.Fatal(err)
	}
	assertReduced(t, s, p.reduced)
	return s
}

// assertReduced fails unless the session's per-kernel grid is smaller
// than its simulation grid exactly when reduced is set.
func assertReduced(t testing.TB, s *Simulator, reduced bool) {
	t.Helper()
	if m, n := s.ReducedGrid(), s.GridSize(); (m < n) != reduced {
		t.Fatalf("grid %d px: per-kernel grid %d, want reduced = %v", n, m, reduced)
	}
}

// TestGroupMatchesSeparateCorners checks the nominal+outer corner set
// against two separate ForwardAndGradient calls: images and costs are
// bit-identical (one SOCS pass, scaled per corner), the gradient equal up
// to the rounding of one adjoint instead of two.
func TestGroupMatchesSeparateCorners(t *testing.T) {
	for _, p := range groupPaths {
		n := p.n
		mask := randomMask(n, 42)
		target := randomMask(n, 99)
		s := groupSim(t, p)
		spec := grid.NewCField(n, n)
		s.MaskSpectrumInto(spec, mask)

		refGrad := grid.NewField(n, n)
		refNom, refOut := NewCornerImages(n), NewCornerImages(n)
		refCostNom := s.ForwardAndGradient(refGrad, spec, Nominal, target, refNom, 1)
		refCostOut := s.ForwardAndGradient(refGrad, spec, Outer, target, refOut, 0.6)

		grad := grid.NewField(n, n)
		corners := []Corner{
			{Cond: Nominal, Weight: 1, Out: NewCornerImages(n)},
			{Cond: Outer, Weight: 0.6, Out: NewCornerImages(n)},
		}
		s.ForwardAndGradientCorners(grad, spec, target, corners)

		fieldsEqual(t, p.name+" nominal aerial", corners[0].Out.Aerial, refNom.Aerial)
		fieldsEqual(t, p.name+" nominal resist", corners[0].Out.R, refNom.R)
		fieldsEqual(t, p.name+" outer aerial", corners[1].Out.Aerial, refOut.Aerial)
		fieldsEqual(t, p.name+" outer resist", corners[1].Out.R, refOut.R)
		if corners[0].Cost != refCostNom || corners[1].Cost != refCostOut {
			t.Fatalf("%s: set costs (%v, %v), separate (%v, %v)", p.name,
				corners[0].Cost, corners[1].Cost, refCostNom, refCostOut)
		}
		// One adjoint over Σ w_c·W_c and two summed adjoints agree up
		// to float64 rounding.
		const tol = 1e-9
		if e := relErr(refGrad, grad); e > tol {
			t.Fatalf("%s: set gradient relative error %.3g > %g", p.name, e, tol)
		}
		if refGrad.Norm() == 0 {
			t.Fatalf("%s: degenerate test: zero gradient", p.name)
		}
	}
}

// TestOneCornerGroupIsForwardAndGradient pins the one-corner set to
// ForwardAndGradient bit for bit, on every path and corner, and its cost
// to CostAt of its resist image.
func TestOneCornerGroupIsForwardAndGradient(t *testing.T) {
	for _, p := range groupPaths {
		n := p.n
		mask := randomMask(n, 7)
		target := randomMask(n, 8)
		s := groupSim(t, p)
		spec := grid.NewCField(n, n)
		s.MaskSpectrumInto(spec, mask)
		for _, cond := range AllConditions {
			refGrad := grid.NewField(n, n)
			ref := NewCornerImages(n)
			refCost := s.ForwardAndGradient(refGrad, spec, cond, target, ref, 0.7)

			grad := grid.NewField(n, n)
			corners := []Corner{{Cond: cond, Weight: 0.7, Out: NewCornerImages(n)}}
			s.ForwardAndGradientCorners(grad, spec, target, corners)

			label := p.name + " " + cond.String()
			fieldsEqual(t, label+" aerial", corners[0].Out.Aerial, ref.Aerial)
			fieldsEqual(t, label+" resist", corners[0].Out.R, ref.R)
			fieldsEqual(t, label+" gradient", grad, refGrad)
			if corners[0].Cost != refCost || refCost != CostAt(ref.R, target) {
				t.Fatalf("%s: cost %v vs %v, CostAt %v", label, corners[0].Cost, refCost, CostAt(ref.R, target))
			}
		}
	}
}

// TestForwardGroupMatchesAerial checks the forward-only corner set:
// aerial images bit-identical to per-corner Forward calls, resist images
// only where asked for, and every corner's cost equal to CostAt of the
// one-corner Forward's resist image.
func TestForwardGroupMatchesAerial(t *testing.T) {
	const n = 64
	s := testSim(t, 3)
	spec := s.MaskSpectrum(randomMask(n, 3))
	target := randomMask(n, 4)
	corners := []Corner{
		{Cond: Nominal, Out: &CornerImages{Aerial: grid.NewField(n, n)}},
		{Cond: Outer, Out: NewCornerImages(n)},
		{Cond: Inner},
	}
	s.ForwardCorners(spec, target, corners)
	for _, c := range corners {
		ref := NewCornerImages(n)
		s.Forward(ref, spec, c.Cond)
		if c.Out != nil {
			fieldsEqual(t, c.Cond.String()+" aerial", c.Out.Aerial, ref.Aerial)
		}
		if c.Out != nil && c.Out.R != nil {
			fieldsEqual(t, c.Cond.String()+" resist", c.Out.R, ref.R)
		}
		if c.Cost != CostAt(ref.R, target) {
			t.Fatalf("%v: cost %v vs %v", c.Cond, c.Cost, CostAt(ref.R, target))
		}
	}
}

// TestMixedBankCornersRunInOneCall: nominal, outer and inner span both
// kernel banks, yet run as one call that emits one corner event and
// matches three one-corner calls: aerials, resist images and costs bit
// for bit, the gradient up to the rounding of one adjoint instead of
// three (1e-9 relative), on every path and for any corner order.
func TestMixedBankCornersRunInOneCall(t *testing.T) {
	for _, p := range groupPaths {
		n := p.n
		s := groupSim(t, p)
		spec := grid.NewCField(n, n)
		s.MaskSpectrumInto(spec, randomMask(n, 5))
		target := randomMask(n, 6)
		for _, order := range [][]Condition{AllConditions, {Inner, Nominal, Outer}} {
			weights := map[Condition]float64{Nominal: 1, Outer: 0.6, Inner: 0.6}
			refGrad := grid.NewField(n, n)
			ref := map[Condition]*CornerImages{}
			refCost := map[Condition]float64{}
			for _, cond := range order {
				ref[cond] = NewCornerImages(n)
				refCost[cond] = s.ForwardAndGradient(refGrad, spec, cond, target, ref[cond], weights[cond])
			}

			sink := &obs.CollectorSink{}
			s.SetSink(sink, "mixed")
			grad := grid.NewField(n, n)
			corners := make([]Corner, len(order))
			for i, cond := range order {
				corners[i] = Corner{Cond: cond, Weight: weights[cond], Out: NewCornerImages(n)}
			}
			s.ForwardAndGradientCorners(grad, spec, target, corners)
			s.SetSink(nil, "")

			label := fmt.Sprintf("%s %v", p.name, order)
			if ev := sink.Events(); len(ev) != 1 || ev[0].Type != obs.EventCorner || ev[0].Name != "forward_gradient" {
				t.Fatalf("%s: events %+v, want one forward_gradient corner event", label, ev)
			}
			for _, c := range corners {
				fieldsEqual(t, label+" "+c.Cond.String()+" aerial", c.Out.Aerial, ref[c.Cond].Aerial)
				fieldsEqual(t, label+" "+c.Cond.String()+" resist", c.Out.R, ref[c.Cond].R)
				if c.Cost != refCost[c.Cond] {
					t.Fatalf("%s: %v cost %v, one-corner call %v", label, c.Cond, c.Cost, refCost[c.Cond])
				}
			}
			const tol = 1e-9
			if e := relErr(refGrad, grad); e > tol {
				t.Fatalf("%s: gradient relative error %.3g > %g", label, e, tol)
			}
		}
	}
}

func TestForwardAndGradientGroupZeroAllocWarm(t *testing.T) {
	for _, g := range warmGrids {
		for _, w := range allocWorkers {
			s, spec, _, target := warmSimAt(t, g, 4, w)
			n := s.GridSize()
			grad := grid.NewField(n, n)
			corners := []Corner{
				{Cond: Nominal, Weight: 1},
				{Cond: Outer, Weight: 0.6},
				{Cond: Inner, Weight: 0.6},
			}
			s.ForwardAndGradientCorners(grad, spec, target, corners)
			if avg := testing.AllocsPerRun(20, func() {
				grad.Zero()
				s.ForwardAndGradientCorners(grad, spec, target, corners)
				s.ForwardCorners(spec, target, corners)
			}); avg != 0 {
				t.Fatalf("%d px, %d workers: warm corner-set calls allocate %.1f objects/op, want 0", n, w, avg)
			}
		}
	}
}
