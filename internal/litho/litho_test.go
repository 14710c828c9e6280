package litho

import (
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// testSim builds a small simulator: 64 px grid at 32 nm/px (2048 nm
// field) with few kernels, fast enough for finite-difference checks.
func testSim(t *testing.T, kernels int) *Simulator {
	t.Helper()
	cfg := DefaultConfig(64, 32)
	cfg.Optics.Kernels = kernels
	s, err := NewSimulator(cfg, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// centeredRectMask returns a mask with a centred rectangle of the given
// pixel dimensions.
func centeredRectMask(n, w, h int) *grid.Field {
	m := grid.NewField(n, n)
	x0, y0 := (n-w)/2, (n-h)/2
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			m.Set(x, y, 1)
		}
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(512, 4).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Threshold = 1.5 },
		func(c *Config) { c.Steepness = -1 },
		func(c *Config) { c.DefocusNM = -5 },
		func(c *Config) { c.DoseVar = 1.5 },
		func(c *Config) { c.Optics.GridSize = 100 },
	}
	for i, mut := range bad {
		c := DefaultConfig(512, 4)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConditionString(t *testing.T) {
	if Nominal.String() != "nominal" || Outer.String() != "outer" || Inner.String() != "inner" {
		t.Fatal("condition names wrong")
	}
	if Condition(99).String() != "Condition(99)" {
		t.Fatal("unknown condition formatting wrong")
	}
}

func TestOpenMaskImagesToUnitIntensity(t *testing.T) {
	s := testSim(t, 4)
	n := s.GridSize()
	mask := grid.NewField(n, n)
	mask.Fill(1)
	spec := s.MaskSpectrum(mask)
	aerial := grid.NewField(n, n)
	s.Aerial(aerial, spec, Nominal)
	min, max := aerial.MinMax()
	if math.Abs(min-1) > 1e-9 || math.Abs(max-1) > 1e-9 {
		t.Fatalf("open-field intensity in [%g,%g], want 1", min, max)
	}
}

func TestBlockedMaskImagesDark(t *testing.T) {
	s := testSim(t, 4)
	n := s.GridSize()
	mask := grid.NewField(n, n)
	spec := s.MaskSpectrum(mask)
	aerial := grid.NewField(n, n)
	s.Aerial(aerial, spec, Nominal)
	if aerial.MaxAbs() > 1e-12 {
		t.Fatalf("dark-field intensity max %g, want 0", aerial.MaxAbs())
	}
}

func TestDoseScalesIntensity(t *testing.T) {
	s := testSim(t, 4)
	n := s.GridSize()
	mask := centeredRectMask(n, 16, 16)
	spec := s.MaskSpectrum(mask)
	nominal := grid.NewField(n, n)
	outer := grid.NewField(n, n)
	s.Aerial(nominal, spec, Outer) // reuse buffers: compute outer first
	outer.CopyFrom(nominal)
	s.Aerial(nominal, spec, Nominal)
	scaled := grid.NewField(n, n)
	scaled.Scale(nominal, 1.02)
	if !outer.Equal(scaled, 1e-12) {
		t.Fatal("outer corner must be +2% dose-scaled nominal intensity at equal focus")
	}
}

func TestInnerCornerUsesDefocusBank(t *testing.T) {
	s := testSim(t, 4)
	if s.Bank(Inner) != s.defocusBank || s.Bank(Nominal) != s.nominalBank || s.Bank(Outer) != s.nominalBank {
		t.Fatal("bank selection wrong")
	}
	if s.Dose(Nominal) != 1 || s.Dose(Outer) != 1.02 || s.Dose(Inner) != 0.98 {
		t.Fatalf("dose factors wrong: %g %g %g", s.Dose(Nominal), s.Dose(Outer), s.Dose(Inner))
	}
}

func TestDefocusReducesPeakIntensity(t *testing.T) {
	s := testSim(t, 6)
	n := s.GridSize()
	// A small feature loses peak intensity under defocus.
	mask := centeredRectMask(n, 4, 4)
	spec := s.MaskSpectrum(mask)
	nom := grid.NewField(n, n)
	inner := grid.NewField(n, n)
	s.Aerial(nom, spec, Nominal)
	s.Aerial(inner, spec, Inner)
	// Remove the dose component to isolate the focus effect.
	inner.Scale(inner, 1/0.98)
	_, nomPeak := nom.MinMax()
	_, innerPeak := inner.MinMax()
	if innerPeak >= nomPeak {
		t.Fatalf("defocus did not reduce peak: %g vs %g", innerPeak, nomPeak)
	}
}

func TestLargeFeaturePrints(t *testing.T) {
	s := testSim(t, 6)
	n := s.GridSize()
	// A 24×24 px feature at 32 nm/px is 768 nm — far above resolution,
	// so its centre must print and the far field must not.
	mask := centeredRectMask(n, 24, 24)
	spec := s.MaskSpectrum(mask)
	printed := grid.NewField(n, n)
	s.PrintedBinary(printed, spec, Nominal)
	if printed.At(n/2, n/2) != 1 {
		t.Fatal("feature centre did not print")
	}
	if printed.At(2, 2) != 0 {
		t.Fatal("far background printed")
	}
}

func TestAerialFastMatchesExactForSingleKernel(t *testing.T) {
	s := testSim(t, 1)
	n := s.GridSize()
	mask := centeredRectMask(n, 10, 20)
	spec := s.MaskSpectrum(mask)
	exact := grid.NewField(n, n)
	fast := grid.NewField(n, n)
	s.Aerial(exact, spec, Nominal)
	s.AerialFast(fast, spec, Nominal)
	if !exact.Equal(fast, 1e-12) {
		t.Fatal("K=1 fused kernel must equal exact SOCS")
	}
}

func TestAerialFastApproximatesExact(t *testing.T) {
	s := testSim(t, 8)
	n := s.GridSize()
	mask := centeredRectMask(n, 20, 20)
	spec := s.MaskSpectrum(mask)
	exact := grid.NewField(n, n)
	fast := grid.NewField(n, n)
	s.Aerial(exact, spec, Nominal)
	s.AerialFast(fast, spec, Nominal)
	// Eq. 17 is an approximation for K>1 — it should be close in the
	// bright areas but not identical.
	diff := grid.NewField(n, n)
	diff.Sub(exact, fast)
	rel := diff.Norm() / exact.Norm()
	if rel > 0.6 {
		t.Fatalf("fused kernel too far from exact: rel err %g", rel)
	}
	if rel == 0 {
		t.Fatal("fused kernel should differ from exact for K>1")
	}
}

func TestResistModelsConsistent(t *testing.T) {
	s := testSim(t, 4)
	n := s.GridSize()
	aerial := grid.NewField(n, n)
	for i := range aerial.Data {
		aerial.Data[i] = float64(i) / float64(n*n)
	}
	sig := grid.NewField(n, n)
	bin := grid.NewField(n, n)
	sig.Sigmoid(aerial, s.cfg.Steepness, s.cfg.Threshold)
	s.ResistBinary(bin, aerial)
	for i := range sig.Data {
		// The sigmoid and the step must agree on which side of ½ each
		// pixel falls (they share the same threshold).
		if (sig.Data[i] > 0.5) != (bin.Data[i] == 1) {
			// Allow the exact-threshold pixel where sigmoid = 0.5.
			if math.Abs(sig.Data[i]-0.5) > 1e-9 {
				t.Fatalf("pixel %d: sigmoid %g vs binary %g", i, sig.Data[i], bin.Data[i])
			}
		}
	}
}

func TestForwardFillsCornerImages(t *testing.T) {
	s := testSim(t, 4)
	n := s.GridSize()
	mask := centeredRectMask(n, 16, 16)
	spec := s.MaskSpectrum(mask)
	out := NewCornerImages(n)
	s.Forward(out, spec, Nominal)
	if out.Aerial.MaxAbs() == 0 || out.R.MaxAbs() == 0 {
		t.Fatal("Forward produced empty images")
	}
	// R must be the sigmoid of the aerial image.
	want := grid.NewField(n, n)
	want.Sigmoid(out.Aerial, s.cfg.Steepness, s.cfg.Threshold)
	if !out.R.Equal(want, 0) {
		t.Fatal("Forward R inconsistent with Resist")
	}
}

// TestGradientMatchesFiniteDifference is the central correctness check
// for Eq. 11: the analytic adjoint must match central finite
// differences of the cost at randomly probed mask pixels, with the
// per-kernel fields on the full grid and on a reduced one.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	for _, g := range warmGrids {
		for _, cond := range AllConditions {
			gradientMatchesFiniteDifference(t, g, cond)
		}
	}
}

func gradientMatchesFiniteDifference(t *testing.T, g warmGrid, cond Condition) {
	cfg := DefaultConfig(g.n, g.pixelNM)
	cfg.Optics.Kernels = 3
	s, err := NewSimulator(cfg, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	assertReduced(t, s, g.reduced)
	n := s.GridSize()
	mask := centeredRectMask(n, 14, 10)
	// Soften the mask so probes sit in the sigmoid's active range.
	for i := range mask.Data {
		mask.Data[i] = 0.2 + 0.6*mask.Data[i]
	}
	target := centeredRectMask(n, 14, 10)

	// Analytic gradient.
	spec := s.MaskSpectrum(mask)
	imgs := NewCornerImages(n)
	s.Forward(imgs, spec, cond)
	grad := grid.NewField(n, n)
	s.GradientInto(grad, spec, cond, target, imgs.R, 1)

	cost := func(m *grid.Field) float64 {
		sp := s.MaskSpectrum(m)
		out := NewCornerImages(n)
		s.Forward(out, sp, cond)
		return CostAt(out.R, target)
	}

	const h = 1e-5
	probes := [][2]int{{n / 2, n / 2}, {n/2 - 7, n / 2}, {n / 2, n/2 - 5}, {n/2 + 3, n/2 + 2}, {4, 4}}
	for _, p := range probes {
		x, y := p[0], p[1]
		m := mask.Clone()
		m.Set(x, y, mask.At(x, y)+h)
		up := cost(m)
		m.Set(x, y, mask.At(x, y)-h)
		down := cost(m)
		fd := (up - down) / (2 * h)
		an := grad.At(x, y)
		if math.Abs(fd-an) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%d px %v: gradient at (%d,%d): analytic %g vs FD %g", n, cond, x, y, an, fd)
		}
	}
}

func TestGradientWeightAndAccumulation(t *testing.T) {
	s := testSim(t, 3)
	n := s.GridSize()
	mask := centeredRectMask(n, 14, 10)
	target := centeredRectMask(n, 12, 8)
	spec := s.MaskSpectrum(mask)
	imgs := NewCornerImages(n)
	s.Forward(imgs, spec, Nominal)

	g1 := grid.NewField(n, n)
	s.GradientInto(g1, spec, Nominal, target, imgs.R, 1)
	g2 := grid.NewField(n, n)
	s.GradientInto(g2, spec, Nominal, target, imgs.R, 0.5)
	s.GradientInto(g2, spec, Nominal, target, imgs.R, 0.5)
	if !g1.Equal(g2, 1e-12) {
		t.Fatal("GradientInto must accumulate linearly in weight")
	}
}

func TestCostAtZeroForPerfectMatch(t *testing.T) {
	a := grid.NewField(4, 4)
	a.Fill(0.7)
	if CostAt(a, a) != 0 {
		t.Fatal("cost of identical images must be 0")
	}
	b := grid.NewField(4, 4)
	if got := CostAt(a, b); math.Abs(got-16*0.49) > 1e-12 {
		t.Fatalf("cost = %g, want %g", got, 16*0.49)
	}
}

// TestMaskSpectrumInto checks the band-pruned mask spectrum on the bins
// it defines, |u|, |v| ≤ r: they equal the full real-input transform bit
// for bit and the complex path (MaskSpectrum) up to rounding.
func TestMaskSpectrumInto(t *testing.T) {
	for _, g := range warmGrids {
		cfg := DefaultConfig(g.n, g.pixelNM)
		cfg.Optics.Kernels = 2
		s, err := NewSimulator(cfg, engine.CPU())
		if err != nil {
			t.Fatal(err)
		}
		n, r := s.GridSize(), s.Resources().Radius()
		if 2*r+1 >= n {
			t.Fatalf("%d px: band %d covers the grid; the pruning is untested", n, r)
		}
		mask := centeredRectMask(n, 8, 8)
		a := s.MaskSpectrum(mask)
		full := grid.NewCField(n, n)
		fft.NewBatchPlan2D(n, n, engine.CPU()).ForwardReal(full, mask, -1)
		b := grid.NewCField(n, n)
		s.MaskSpectrumInto(b, mask)
		for v := -r; v <= r; v++ {
			for u := -r; u <= r; u++ {
				i := (v+n)%n*n + (u+n)%n
				if b.Data[i] != full.Data[i] {
					t.Fatalf("%d px: bin (%d,%d) = %v, full transform %v", n, u, v, b.Data[i], full.Data[i])
				}
				if d := b.Data[i] - a.Data[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
					t.Fatalf("%d px: bin (%d,%d) = %v, complex path %v", n, u, v, b.Data[i], a.Data[i])
				}
			}
		}
	}
}

// TestMaskSpectrumIntoTimedOnce: every MaskSpectrumInto call is one
// observation of its own histogram, fft.batch.forward_real_ns, and none
// of the four fft.batch histograms the benchmark sums into the litho
// FFT share.
func TestMaskSpectrumIntoTimedOnce(t *testing.T) {
	s := testSim(t, 2)
	n := s.GridSize()
	mask, dst := centeredRectMask(n, 8, 8), grid.NewCField(n, n)
	const calls = 3
	before := obs.Default.Snapshot()
	for i := 0; i < calls; i++ {
		s.MaskSpectrumInto(dst, mask)
	}
	after := obs.Default.Snapshot()
	count := func(h string) float64 {
		k := "fft.batch." + h + "_ns.count"
		return after[k] - before[k]
	}
	if got := count("forward_real"); got != calls {
		t.Fatalf("fft.batch.forward_real_ns counted %v calls, want %d", got, calls)
	}
	for _, h := range []string{"forward", "inverse", "inverse_banded", "forward_banded_cols"} {
		if got := count(h); got != 0 {
			t.Fatalf("MaskSpectrumInto counted %v calls in fft.batch.%s_ns", got, h)
		}
	}
}

// TestSiblingSharesBanksNotScratch: a second session on one resource
// bank shares the bank's immutable resources and its pool, never its
// mutable scratch.
func TestSiblingSharesBanksNotScratch(t *testing.T) {
	s := testSim(t, 3)
	s2, err := NewSession(s.Resources(), s.Config(), engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Release()

	// Immutable resources are aliased: one bank backs both sessions.
	if s2.res != s.res {
		t.Fatal("sibling must share the resource bank")
	}
	if s2.nominalBank != s.nominalBank || s2.defocusBank != s.defocusBank {
		t.Fatal("sibling must alias the kernel banks")
	}
	if s2.pool != s.pool {
		t.Fatal("sibling must lease from the same pool")
	}

	// Mutable scratch is private: no buffer may be shared, or concurrent
	// sessions would corrupt each other.
	if s2.accum == s.accum {
		t.Fatal("sibling aliases complex scratch")
	}
	if s2.batchScratch == s.batchScratch {
		t.Fatal("sibling aliases plan workspaces")
	}
	if s2.batch == s.batch {
		t.Fatal("sibling aliases 2-D plans (they wrap private scratch)")
	}

	// Both sessions must produce identical images for one mask.
	n := s.GridSize()
	mask := centeredRectMask(n, 24, 12)
	a1 := grid.NewField(n, n)
	a2 := grid.NewField(n, n)
	s.Aerial(a1, s.MaskSpectrum(mask), Nominal)
	s2.Aerial(a2, s2.MaskSpectrum(mask), Nominal)
	for i := range a1.Data {
		if a1.Data[i] != a2.Data[i] {
			t.Fatalf("sibling aerial diverges at %d", i)
		}
	}
	if s2.plane[0] == s.plane[0] || &s2.sweepBuf[0] == &s.sweepBuf[0] {
		t.Fatal("sibling aliases real scratch")
	}
}
