package litho

import (
	"math"
	"testing"

	"lsopc/internal/grid"
)

func TestForwardAndGradientMatchesSeparatePath(t *testing.T) {
	for _, cond := range AllConditions {
		s := testSim(t, 3)
		n := s.GridSize()
		mask := centeredRectMask(n, 14, 10)
		target := centeredRectMask(n, 12, 8)
		spec := s.MaskSpectrum(mask)

		// Reference: Forward then GradientInto.
		refImgs := NewCornerImages(n)
		s.Forward(refImgs, spec, cond)
		refGrad := grid.NewField(n, n)
		s.GradientInto(refGrad, spec, cond, target, refImgs.R, 0.7)
		refCost := CostAt(refImgs.R, target)

		// Fused path.
		imgs := NewCornerImages(n)
		grad := grid.NewField(n, n)
		cost := s.ForwardAndGradient(grad, spec, cond, target, imgs, 0.7)

		if math.Abs(cost-refCost) > 1e-9*(1+refCost) {
			t.Fatalf("%v: fused cost %g vs %g", cond, cost, refCost)
		}
		if !imgs.R.Equal(refImgs.R, 1e-12) || !imgs.Aerial.Equal(refImgs.Aerial, 1e-12) {
			t.Fatalf("%v: fused images differ", cond)
		}
		if !grad.Equal(refGrad, 1e-9) {
			t.Fatalf("%v: fused gradient differs", cond)
		}
	}
}

func TestForwardAndGradientAccumulates(t *testing.T) {
	s := testSim(t, 2)
	n := s.GridSize()
	mask := centeredRectMask(n, 10, 10)
	target := centeredRectMask(n, 8, 8)
	spec := s.MaskSpectrum(mask)
	imgs := NewCornerImages(n)

	g1 := grid.NewField(n, n)
	s.ForwardAndGradient(g1, spec, Nominal, target, imgs, 1)
	s.ForwardAndGradient(g1, spec, Inner, target, imgs, 0.5)

	g2 := grid.NewField(n, n)
	s.ForwardAndGradient(g2, spec, Inner, target, imgs, 0.5)
	s.ForwardAndGradient(g2, spec, Nominal, target, imgs, 1)

	if !g1.Equal(g2, 1e-9) {
		t.Fatal("gradient accumulation must be order-independent")
	}
}
