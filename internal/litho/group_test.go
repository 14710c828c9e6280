package litho

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
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

// TestGroupMatchesSeparateCorners checks the nominal+outer focus group
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
		group := []GroupCorner{
			{Cond: Nominal, Weight: 1, Out: NewCornerImages(n)},
			{Cond: Outer, Weight: 0.6, Out: NewCornerImages(n)},
		}
		s.ForwardAndGradientGroup(grad, spec, target, group)

		fieldsEqual(t, p.name+" nominal aerial", group[0].Out.Aerial, refNom.Aerial)
		fieldsEqual(t, p.name+" nominal resist", group[0].Out.R, refNom.R)
		fieldsEqual(t, p.name+" outer aerial", group[1].Out.Aerial, refOut.Aerial)
		fieldsEqual(t, p.name+" outer resist", group[1].Out.R, refOut.R)
		if group[0].Cost != refCostNom || group[1].Cost != refCostOut {
			t.Fatalf("%s: group costs (%v, %v), separate (%v, %v)", p.name,
				group[0].Cost, group[1].Cost, refCostNom, refCostOut)
		}
		// One adjoint over Σ w_c·W_c and two summed adjoints agree up
		// to float64 rounding.
		const tol = 1e-9
		if e := relErr(refGrad, grad); e > tol {
			t.Fatalf("%s: group gradient relative error %.3g > %g", p.name, e, tol)
		}
		if refGrad.Norm() == 0 {
			t.Fatalf("%s: degenerate test: zero gradient", p.name)
		}
	}
}

// TestOneCornerGroupIsForwardAndGradient pins the one-corner group to
// ForwardAndGradient bit for bit, on every path and corner, with the
// weight applied after the adjoint.
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
			group := []GroupCorner{{Cond: cond, Weight: 0.7, Out: NewCornerImages(n)}}
			s.ForwardAndGradientGroup(grad, spec, target, group)

			label := p.name + " " + cond.String()
			fieldsEqual(t, label+" aerial", group[0].Out.Aerial, ref.Aerial)
			fieldsEqual(t, label+" resist", group[0].Out.R, ref.R)
			fieldsEqual(t, label+" gradient", grad, refGrad)
			if group[0].Cost != refCost {
				t.Fatalf("%s: cost %v vs %v", label, group[0].Cost, refCost)
			}
		}
	}
}

// TestForwardGroupMatchesAerial checks the forward-only group: aerial
// images bit-identical to per-corner Aerial calls, resist images and
// costs only where asked for.
func TestForwardGroupMatchesAerial(t *testing.T) {
	const n = 64
	s := testSim(t, 3)
	spec := s.MaskSpectrum(randomMask(n, 3))
	target := randomMask(n, 4)
	group := []GroupCorner{
		{Cond: Nominal, Out: &CornerImages{Aerial: grid.NewField(n, n)}},
		{Cond: Outer, Out: NewCornerImages(n)},
	}
	s.ForwardGroup(spec, target, group)
	for _, c := range group {
		ref := NewCornerImages(n)
		s.Forward(ref, spec, c.Cond)
		fieldsEqual(t, c.Cond.String()+" aerial", c.Out.Aerial, ref.Aerial)
		if c.Out.R != nil {
			fieldsEqual(t, c.Cond.String()+" resist", c.Out.R, ref.R)
			if c.Cost != CostAt(ref.R, target) {
				t.Fatalf("%v: cost %v vs %v", c.Cond, c.Cost, CostAt(ref.R, target))
			}
		}
	}
	if group[0].Cost != 0 {
		t.Fatalf("aerial-only corner got cost %v", group[0].Cost)
	}
}

// TestGroupRejectsMixedFocus: nominal and inner use different kernel
// banks, so they cannot share one SOCS pass.
func TestGroupRejectsMixedFocus(t *testing.T) {
	const n = 64
	s := testSim(t, 2)
	spec := s.MaskSpectrum(randomMask(n, 5))
	target := randomMask(n, 6)
	mixed := func() []GroupCorner {
		return []GroupCorner{
			{Cond: Nominal, Weight: 1, Out: NewCornerImages(n)},
			{Cond: Inner, Weight: 0.6, Out: NewCornerImages(n)},
		}
	}
	for name, call := range map[string]func(){
		"ForwardGroup":            func() { s.ForwardGroup(spec, target, mixed()) },
		"ForwardAndGradientGroup": func() { s.ForwardAndGradientGroup(grid.NewField(n, n), spec, target, mixed()) },
		"empty":                   func() { s.ForwardGroup(spec, target, nil) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: mixed-focus group was accepted", name)
				}
				if msg, _ := r.(string); !strings.Contains(msg, "focus group") {
					t.Fatalf("%s: unclear panic %v", name, r)
				}
			}()
			call()
		}()
	}
}

func TestForwardAndGradientGroupZeroAllocWarm(t *testing.T) {
	for _, g := range warmGrids {
		s, spec, _, target := warmSimAt(t, g, 4)
		n := s.GridSize()
		grad := grid.NewField(n, n)
		group := []GroupCorner{
			{Cond: Nominal, Weight: 1, Out: NewCornerImages(n)},
			{Cond: Outer, Weight: 0.6, Out: NewCornerImages(n)},
		}
		s.ForwardAndGradientGroup(grad, spec, target, group)
		if avg := testing.AllocsPerRun(20, func() {
			grad.Zero()
			s.ForwardAndGradientGroup(grad, spec, target, group)
			s.ForwardGroup(spec, target, group)
		}); avg != 0 {
			t.Fatalf("%d px: warm group calls allocate %.1f objects/op, want 0", n, avg)
		}
	}
}

func TestFocusGroupsSplitByBank(t *testing.T) {
	s := testSim(t, 2)
	cfg := s.Config()
	cfg.DefocusNM = 0
	flat, err := NewSimulator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sim   *Simulator
		conds []Condition
		want  string
	}{
		{s, AllConditions, "[[nominal outer] [inner]]"},
		{s, []Condition{Outer, Inner}, "[[outer] [inner]]"},
		{s, []Condition{Inner}, "[[inner]]"},
		{flat, AllConditions, "[[nominal outer inner]]"},
	} {
		if got := fmt.Sprint(tc.sim.FocusGroups(tc.conds)); got != tc.want {
			t.Errorf("FocusGroups(%v) = %s, want %s", tc.conds, got, tc.want)
		}
	}
}
