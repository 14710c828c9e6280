package litho

import (
	"math/cmplx"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/geom"
	"lsopc/internal/grid"
	"lsopc/internal/layouts"
	"lsopc/internal/optics"
)

// The dense full-grid per-kernel SOCS model, kept as the reference the
// reduced-grid session path is checked against (the way the FFT keeps
// referenceTransform): every kernel's dense spectrum product
// through the batch plan's unbanded passes, one field at a time,
// accumulated kernel by kernel. Those passes are anchored to the naive
// DFT in the fft package's tests.

// reducedTol bounds the relative error ‖got − ref‖/‖ref‖ of the reduced-
// grid aerial image and gradient against the dense reference. The path
// is exact in exact arithmetic; at 512² the measured error is ~5e-16, so
// the bound leaves three decades for rounding.
const reducedTol = 1e-12

// referenceAerial returns the undosed SOCS intensity
// Σ_k μ_k |IFFT(spec_k ⊙ M̂)|² on the full grid.
func referenceAerial(bank *optics.Bank, maskSpec *grid.CField) *grid.Field {
	n := maskSpec.W
	plan := fft.NewBatchPlan2D(n, n, engine.CPU())
	e := grid.NewCField(n, n)
	aerial := grid.NewField(n, n)
	for _, k := range bank.Kernels {
		e.Mul(maskSpec, k.Dense(n))
		plan.BatchInverse([]*grid.CField{e})
		e.AccumAbsSq(aerial, k.Weight)
	}
	return aerial
}

// referenceGradient returns the Eq. 11 adjoint of the sensitivity w on
// the full grid, 2·Re IFFT(Σ_k μ_k FFT(w ⊙ conj E_k) ⊙ spec(flip h_k)).
func referenceGradient(bank *optics.Bank, maskSpec *grid.CField, w *grid.Field) *grid.Field {
	n := maskSpec.W
	plan := fft.NewBatchPlan2D(n, n, engine.CPU())
	e := grid.NewCField(n, n)
	accum := grid.NewCField(n, n)
	for _, k := range bank.Kernels {
		e.Mul(maskSpec, k.Dense(n))
		plan.BatchInverse([]*grid.CField{e})
		for i, v := range e.Data {
			e.Data[i] = complex(w.Data[i], 0) * cmplx.Conj(v)
		}
		plan.BatchForward([]*grid.CField{e})
		e.Mul(e, k.DenseFlip(n))
		accum.AddScaled(e, complex(k.Weight, 0))
	}
	plan.BatchInverse([]*grid.CField{accum})
	grad := grid.NewField(n, n)
	for i, v := range accum.Data {
		grad.Data[i] = 2 * real(v)
	}
	return grad
}

// checkAgainstReference compares s's aerial images (every corner and an
// intermediate focus the session holds no bank for) and its fused
// gradient at every corner with the dense reference.
func checkAgainstReference(t testing.TB, label string, s *Simulator, mask, target *grid.Field) {
	t.Helper()
	n := s.GridSize()
	spec := grid.NewCField(n, n)
	s.MaskSpectrumInto(spec, mask)
	refSpec := s.MaskSpectrum(mask)
	check := func(what string, ref, got *grid.Field) {
		t.Helper()
		if e := relErr(ref, got); e > reducedTol {
			t.Fatalf("%s %s: relative error %.3g > %g", label, what, e, reducedTol)
		}
	}

	got := grid.NewField(n, n)
	if err := s.AerialAtFocus(got, spec, 10); err != nil {
		t.Fatal(err)
	}
	bank, err := s.focusBank(10)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceAerial(bank, refSpec)
	check("aerial at 10 nm defocus", ref, got)

	for _, cond := range AllConditions {
		out := NewCornerImages(n)
		grad := grid.NewField(n, n)
		s.ForwardAndGradient(grad, spec, cond, target, out, 0.7)

		ref := referenceAerial(s.Bank(cond), refSpec)
		ref.Scale(ref, s.Dose(cond))
		check(cond.String()+" aerial", ref, out.Aerial)

		// The gradient reference starts from the reference resist image,
		// so it checks the forward and the adjoint together.
		r := grid.NewField(n, n)
		r.Sigmoid(ref, s.cfg.Steepness, s.cfg.Threshold)
		w := grid.NewField(n, n)
		c := 2 * s.cfg.Steepness * s.Dose(cond)
		for i, rv := range r.Data {
			w.Data[i] = c * (rv - target.Data[i]) * rv * (1 - rv)
		}
		refGrad := referenceGradient(s.Bank(cond), refSpec, w)
		refGrad.Scale(refGrad, 0.7)
		check(cond.String()+" gradient", refGrad, grad)
	}
}

// TestReducedMatchesDenseReference runs the reduced per-kernel grid at
// the fast preset's scale — B4 at 512 px / 4 nm, K = 8, m = 128 — and on
// the 128 px / 8 nm test grid (m = 64) against the dense full-grid
// reference.
func TestReducedMatchesDenseReference(t *testing.T) {
	layout, err := layouts.ByID("B4")
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.Build()
	if err != nil {
		t.Fatal(err)
	}
	b4, err := geom.Rasterize(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		n       int
		pixelNM float64
		kernels int
		mask    *grid.Field
	}{
		{"B4 512px", 512, 4, 8, b4},
		{"128px", 128, 8, 4, randomMask(128, 5)},
	} {
		cfg := DefaultConfig(tc.n, tc.pixelNM)
		cfg.Optics.Kernels = tc.kernels
		s, err := NewSimulator(cfg, engine.New("reference-test", 2))
		if err != nil {
			t.Fatal(err)
		}
		assertReduced(t, s, true)
		// A continuous mask and an offset target keep the gradient away
		// from zero everywhere near the pattern.
		mask := tc.mask.Clone()
		for i := range mask.Data {
			mask.Data[i] = 0.1 + 0.8*mask.Data[i]
		}
		target := randomMask(tc.n, 77)
		checkAgainstReference(t, tc.name, s, mask, target)
		s.Release()
	}
}

// FuzzReducedMatchesReference checks the reduced-grid aerial image and
// gradient against the dense reference on random 128 px / 8 nm masks
// (m = 64): each input byte sets the transmission of one 8×8 block.
func FuzzReducedMatchesReference(f *testing.F) {
	const n = 128
	cfg := DefaultConfig(n, 8)
	cfg.Optics.Kernels = 3
	s, err := NewSimulator(cfg, engine.CPU())
	if err != nil {
		f.Fatal(err)
	}
	assertReduced(f, s, true)
	target := randomMask(n, 13)
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 128})
	f.Add([]byte("reduced-grid SOCS"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const block = 8
		mask := grid.NewField(n, n)
		for i := range mask.Data {
			x, y := i%n/block, i/n/block
			mask.Data[i] = float64(data[(y*n/block+x)%len(data)]) / 255
		}
		checkAgainstReference(t, "fuzz", s, mask, target)
	})
}
