package pixelilt

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

// TestVariantGradientsMatchFiniteDifference checks every variant's Eval
// gradient dL/dθ against central finite differences of the composed
// objective its corner plan defines, L(θ) = Σ_c w_c·‖R_c(σ(a·θ)) − R*‖²,
// at every distinct plan of its schedule, with the per-kernel fields on
// a reduced grid (128 px / 8 nm, m = 64).
func TestVariantGradientsMatchFiniteDifference(t *testing.T) {
	const n = 128
	cfg := litho.DefaultConfig(n, 8)
	cfg.Optics.Kernels = 3
	sim, err := litho.NewSimulator(cfg, engine.New("variant-fd-test", 2))
	if err != nil {
		t.Fatal(err)
	}
	if m := sim.ReducedGrid(); m >= n {
		t.Fatalf("per-kernel grid %d is not reduced below %d", m, n)
	}
	target := rectTarget(n, 40, 24)
	// A moderate θ keeps M = σ(a·θ) off its saturated tails.
	theta := grid.NewField(n, n)
	for i, v := range target.Data {
		theta.Data[i] = v - 0.5
	}
	spec := grid.NewCField(n, n)
	out := litho.NewCornerImages(n)
	mask := grid.NewField(n, n)

	for _, v := range Variants {
		opts := DefaultOptions(v)
		// MOSAIC_fast cycles three plans, PVOPC switches plans at its
		// phase boundary, and the other variants keep one plan.
		iters := []int{0}
		switch v {
		case MosaicFast:
			iters = []int{0, 1, 2}
		case PVOPC:
			iters = []int{0, opts.MaxIter - 1}
		}
		for _, i := range iters {
			label := fmt.Sprintf("%v iteration %d", v, i)
			s := newStepper(sim, target, opts, 0, theta)
			s.Eval(i)
			grad := s.gradM.Clone()
			s.release()
			if grad.MaxAbs() == 0 {
				t.Fatalf("%s: degenerate test: zero gradient", label)
			}

			corners, weights := opts.cornerPlan(i)
			objective := func(th *grid.Field) float64 {
				for j, x := range th.Data {
					mask.Data[j] = 1 / (1 + math.Exp(-maskSteepness*x))
				}
				sim.MaskSpectrumInto(spec, mask)
				l := 0.0
				for k, cond := range corners {
					sim.Forward(out, spec, cond)
					l += weights[k] * litho.CostAt(out.R, target)
				}
				return l
			}
			const h = 1e-5
			c := n / 2
			for _, p := range [][2]int{{c, c}, {c - 20, c}, {c + 19, c + 11}, {c, c - 12}, {c + 25, c}} {
				x, y := p[0], p[1]
				th := theta.Clone()
				th.Set(x, y, theta.At(x, y)+h)
				up := objective(th)
				th.Set(x, y, theta.At(x, y)-h)
				down := objective(th)
				fd := (up - down) / (2 * h)
				if an := grad.At(x, y); math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
					t.Errorf("%s: dL/dθ at (%d,%d): Eval %g vs finite difference %g", label, x, y, an, fd)
				}
			}
		}
	}
}
