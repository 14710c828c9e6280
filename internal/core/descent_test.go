package core

import (
	"math"
	"sort"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
)

// TestPixelFlipDescent checks the level-set velocity at the mask level,
// where the objective lives: J(ψ) is piecewise constant because the
// mask M = H(−ψ) is a hard threshold, so the check is on the pixels a
// small step ψ + dt·v flips. To first order their cost change is
// ΔJ ≈ ⟨G, ΔM⟩ with G the composed gradient (nominal + w_pvb·(outer +
// inner), every weight folded into the resist sensitivity). With
// v = +G·|∇ψ| (velocityFromGradient) a pixel leaves the mask only where
// G > 0 and joins it only where G < 0, so ⟨G, ΔM⟩ < 0: the step must
// lower the true cost, and ΔJ must agree with ⟨G, ΔM⟩ in sign and
// within a factor of two. The run uses the reduced per-kernel grid
// (128 px / 8 nm, m = 64) and starts from a few optimizer iterations so
// the contour is not the target's.
func TestPixelFlipDescent(t *testing.T) {
	const n = 128
	cfg := litho.DefaultConfig(n, 8)
	cfg.Optics.Kernels = 4
	sim, err := litho.NewSimulator(cfg, engine.New("descent-test", 2))
	if err != nil {
		t.Fatal(err)
	}
	if m := sim.ReducedGrid(); m >= n {
		t.Fatalf("per-kernel grid %d is not reduced below %d", m, n)
	}
	opts := DefaultOptions()
	opts.MaxIter = 100
	opts.Tolerance = 0
	o, err := newOptimizer(sim, crossTarget(n), opts, true)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Release()
	drv, err := o.driver()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		drv.Step()
	}

	// G and the steepest-descent velocity at the current ψ.
	o.maskFromPsi(o.psi)
	o.simulate()
	o.velocityFromGradient(false)
	psi, v, g := o.psi.Clone(), o.velocity.Clone(), o.grad.Clone()
	mask0 := o.mask.Clone()
	j0 := o.costAtPsi(psi)

	// The times at which ψ + t·v changes sign, pixel by pixel.
	var times []float64
	for i, p := range psi.Data {
		if tc := -p / v.Data[i]; tc > 0 && !math.IsInf(tc, 0) {
			times = append(times, tc)
		}
	}
	sort.Float64s(times)
	for _, flips := range []int{1, 4, 12} {
		if len(times) <= flips {
			t.Fatalf("only %d pixels can flip", len(times))
		}
		// A step between the flips-th and the next crossing time.
		dt := (times[flips-1] + times[flips]) / 2
		cand := psi.Clone()
		cand.AddScaled(v, dt)
		j1 := o.costAtPsi(cand)
		mask1 := grid.NewField(n, n)
		levelset.MaskFromPsi(mask1, cand)
		var first float64
		changed := 0
		for i := range mask1.Data {
			if dm := mask1.Data[i] - mask0.Data[i]; dm != 0 {
				first += g.Data[i] * dm
				changed++
			}
		}
		dJ := j1 - j0
		t.Logf("%d flips (%d pixels): ΔJ %.6g, ⟨G, ΔM⟩ %.6g, ratio %.3f", flips, changed, dJ, first, dJ/first)
		if changed == 0 {
			t.Fatalf("%d flips: the step changed no pixel", flips)
		}
		if !(first < 0) {
			t.Fatalf("%d flips: ⟨G, ΔM⟩ = %g, want < 0 (v is not a descent direction)", flips, first)
		}
		if !(dJ < 0) {
			t.Fatalf("%d flips: ΔJ = %g, want < 0", flips, dJ)
		}
		if r := dJ / first; r < 0.5 || r > 2 {
			t.Fatalf("%d flips: ΔJ/⟨G, ΔM⟩ = %.3f, want within a factor of 2", flips, r)
		}
	}
}
