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
