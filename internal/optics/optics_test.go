package optics

import (
	"math"
	"math/cmplx"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
)

// testConfig keeps the physical field fixed at 2048 nm so the pupil
// spans the same number of frequency bins at every grid size.
func testConfig(n int, k int) Config {
	c := Default(n, 2048.0/float64(n))
	c.Kernels = k
	return c
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default(2048, 1).Validate(); err != nil {
		t.Fatalf("paper-scale config invalid: %v", err)
	}
	if err := testConfig(128, 8).Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := testConfig(128, 8)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero wavelength", func(c *Config) { c.WavelengthNM = 0 }},
		{"negative NA", func(c *Config) { c.NA = -1 }},
		{"NA above medium", func(c *Config) { c.NA = 1.5 }},
		{"medium below 1", func(c *Config) { c.MediumIndex = 0.9 }},
		{"sigma order", func(c *Config) { c.SigmaIn = 0.9; c.SigmaOut = 0.5 }},
		{"sigma above 1", func(c *Config) { c.SigmaOut = 1.2 }},
		{"non-pow2 grid", func(c *Config) { c.GridSize = 100 }},
		{"zero pixel", func(c *Config) { c.PixelNM = 0 }},
		{"zero kernels", func(c *Config) { c.Kernels = 0 }},
		{"unresolvable pupil", func(c *Config) { c.GridSize = 4; c.PixelNM = 1 }},
	}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: config accepted", m.name)
		}
	}
}

func TestSampleSourceCountAndAnnulus(t *testing.T) {
	for _, k := range []int{1, 2, 8, 24, 100} {
		pts := sampleSource(0.5, 0.8, k)
		if len(pts) != k {
			t.Fatalf("k=%d: got %d points", k, len(pts))
		}
		var wsum float64
		for _, p := range pts {
			r := math.Hypot(p.sx, p.sy)
			if r < 0.5-1e-9 || r > 0.8+1e-9 {
				t.Errorf("k=%d: point radius %g outside annulus", k, r)
			}
			wsum += p.weight
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Errorf("k=%d: weights sum to %g, want 1", k, wsum)
		}
	}
}

func TestNewBankBasics(t *testing.T) {
	cfg := testConfig(128, 8)
	b, err := NewBank(cfg, 0, engine.GPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Kernels) != 8 {
		t.Fatalf("K = %d", len(b.Kernels))
	}
	wsum := 0.0
	for _, k := range b.Kernels {
		wsum += k.Weight
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weight sum %g", wsum)
	}
	if b.Combined.Box == nil || b.Combined.R <= 0 {
		t.Fatal("combined kernel missing")
	}
	for i, k := range b.Kernels {
		if k.Box == nil || k.R <= 0 {
			t.Fatalf("kernel %d has no spectrum box", i)
		}
		// The dense flip expansion must be the index reversal of the
		// dense spectrum.
		want := grid.NewCField(128, 128)
		want.FlipInto(k.Dense(128))
		if !k.DenseFlip(128).Equal(want, 0) {
			t.Fatalf("kernel %d flip spectrum wrong", i)
		}
	}
}

func TestNewBankRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig(128, 8)
	cfg.NA = -1
	if _, err := NewBank(cfg, 0, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNominalKernelsAreBandLimited(t *testing.T) {
	cfg := testConfig(128, 6)
	b, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	// Every kernel spectrum must vanish beyond (1+σout)·cutoff and be
	// nonzero at DC (the shifted pupil always covers DC for σout < 1).
	maxF := (1 + cfg.SigmaOut) * cfg.CutoffFreq()
	for ki, k := range b.Kernels {
		spec := k.Dense(128)
		if cmplx.Abs(spec.At(0, 0)) < 0.5 {
			t.Errorf("kernel %d: DC = %v, want ≈1", ki, spec.At(0, 0))
		}
		nonzero := 0
		for y := 0; y < 128; y++ {
			fy := freqAt(y, 128, cfg.PixelNM)
			for x := 0; x < 128; x++ {
				fx := freqAt(x, 128, cfg.PixelNM)
				v := cmplx.Abs(spec.At(x, y))
				if v > 0 {
					nonzero++
					if math.Hypot(fx, fy) > maxF+2/(128*cfg.PixelNM) {
						t.Fatalf("kernel %d: energy at |f| beyond combined cutoff", ki)
					}
				}
			}
		}
		if nonzero == 0 {
			t.Fatalf("kernel %d is identically zero", ki)
		}
	}
}

func TestNominalKernelIsPurePupil(t *testing.T) {
	// At zero defocus the kernel spectrum must be real (amplitude-only
	// pupil, no phase).
	cfg := testConfig(64, 4)
	b, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range b.Kernels {
		for _, v := range k.Box.Data {
			if imag(v) != 0 {
				t.Fatalf("kernel %d: nominal spectrum has phase %v", ki, v)
			}
		}
	}
}

func TestDefocusAddsPhaseOnly(t *testing.T) {
	cfg := testConfig(64, 4)
	nom, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewBank(cfg, 25, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	phased := 0
	for ki := range nom.Kernels {
		a := nom.Kernels[ki].Box
		b := def.Kernels[ki].Box
		for i := range a.Data {
			// Same modulus everywhere: defocus is a pure phase aberration.
			if math.Abs(cmplx.Abs(a.Data[i])-cmplx.Abs(b.Data[i])) > 1e-12 {
				t.Fatalf("kernel %d: defocus changed modulus", ki)
			}
			if cmplx.Abs(a.Data[i]-b.Data[i]) > 1e-9 && cmplx.Abs(a.Data[i]) > 0 {
				phased++
			}
		}
	}
	if phased == 0 {
		t.Fatal("25 nm defocus produced no phase change")
	}
}

func TestSpatialKernelConcentratedAtOrigin(t *testing.T) {
	cfg := testConfig(128, 4)
	b, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	// Kernel 0 in the spatial domain, centred at the origin with
	// wraparound.
	h := b.Kernels[0].Dense(cfg.GridSize)
	fft.NewBatchPlan2D(h.W, h.H, engine.CPU()).BatchInverse([]*grid.CField{h})
	// The kernel is a (shifted-pupil) Airy-like pattern: its peak
	// modulus must be at/near the origin and the energy within a
	// quarter-grid radius must dominate.
	peak := cmplx.Abs(h.At(0, 0))
	var totalE, nearE float64
	n := h.W
	for y := 0; y < n; y++ {
		dy := y
		if dy > n/2 {
			dy -= n
		}
		for x := 0; x < n; x++ {
			dx := x
			if dx > n/2 {
				dx -= n
			}
			e := cmplx.Abs(h.At(x, y))
			totalE += e * e
			if math.Hypot(float64(dx), float64(dy)) < float64(n)/4 {
				nearE += e * e
			}
			if cmplx.Abs(h.At(x, y)) > peak+1e-12 {
				t.Fatalf("kernel peak not at origin: |h(%d,%d)| > |h(0,0)|", x, y)
			}
		}
	}
	if nearE < 0.8*totalE {
		t.Fatalf("kernel not localised: %.1f%% of energy near origin", 100*nearE/totalE)
	}
}

func TestFreqAtWrapping(t *testing.T) {
	// Standard FFT layout: bins 0..n/2 positive, then negative.
	if freqAt(0, 8, 1) != 0 {
		t.Fatal("DC bin must be zero frequency")
	}
	if freqAt(1, 8, 1) != 0.125 {
		t.Fatal("positive frequency wrong")
	}
	if freqAt(7, 8, 1) != -0.125 {
		t.Fatal("negative frequency wrong")
	}
	if freqAt(4, 8, 1) != 0.5 {
		t.Fatal("Nyquist bin wrong")
	}
	// Pitch scales frequencies down.
	if freqAt(1, 8, 2) != 0.0625 {
		t.Fatal("pitch scaling wrong")
	}
}

func TestCombinedKernelIsWeightedSum(t *testing.T) {
	cfg := testConfig(64, 5)
	b, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	want := grid.NewCField(64, 64)
	for _, k := range b.Kernels {
		want.AddScaled(k.Dense(64), complex(k.Weight, 0))
	}
	if !b.Combined.Dense(64).Equal(want, 1e-15) {
		t.Fatal("combined kernel is not the weighted sum (Eq. 17)")
	}
}

func TestBanksDeterministic(t *testing.T) {
	cfg := testConfig(64, 6)
	a, _ := NewBank(cfg, 25, engine.CPU())
	b, _ := NewBank(cfg, 25, engine.GPU())
	for i := range a.Kernels {
		if !a.Kernels[i].Box.Equal(b.Kernels[i].Box, 0) {
			t.Fatal("bank construction must be deterministic across engines")
		}
	}
}
