package procwin

import (
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

func testLitho() litho.Config {
	l := litho.DefaultConfig(64, 32)
	l.Optics.Kernels = 4
	return l
}

func testConfig(t *testing.T) Config {
	t.Helper()
	c := DefaultConfig(testLitho())
	c.FocusSteps = 3
	c.DoseSteps = 3
	return c
}

// testSim builds a 64-px, 4-kernel simulator session on eng.
func testSim(t *testing.T, eng *engine.Engine) *litho.Simulator {
	t.Helper()
	sim, err := litho.NewSimulator(testLitho(), eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Release)
	return sim
}

// testAnalyzer builds the 3×3 test sweep on a serial session.
func testAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := New(testConfig(t), testSim(t, engine.CPU()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// lineMask builds a wide vertical line through the grid centre.
func lineMask(n, halfWidth int) *grid.Field {
	m := grid.NewField(n, n)
	c := n / 2
	for y := 8; y < n-8; y++ {
		for x := c - halfWidth; x < c+halfWidth; x++ {
			m.Set(x, y, 1)
		}
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(t).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FocusMaxNM = -1 },
		func(c *Config) { c.FocusSteps = 0 },
		func(c *Config) { c.DoseSteps = 0 },
		func(c *Config) { c.DoseDelta = 1.5 },
		func(c *Config) { c.DoseDelta = -0.1 },
	}
	for i, mut := range bad {
		c := testConfig(t)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSweepMatrixShape(t *testing.T) {
	a := testAnalyzer(t)
	mask := lineMask(64, 4) // 8 px = 256 nm line
	res, err := a.Sweep(mask, CutLine{X: 32, Y: 32, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3*3 {
		t.Fatalf("matrix points %d, want 9", len(res.Points))
	}
	if res.TargetCD <= 0 {
		t.Fatal("nominal CD missing")
	}
	// Focus and dose axes as configured.
	fv := a.cfg.FocusValues()
	if len(fv) != 3 || fv[0] != 0 || fv[2] != 25 {
		t.Fatalf("focus values %v", fv)
	}
	dv := a.cfg.DoseValues()
	if len(dv) != 3 || math.Abs(dv[0]-0.98) > 1e-12 || dv[1] != 1 || math.Abs(dv[2]-1.02) > 1e-12 {
		t.Fatalf("dose values %v", dv)
	}
}

func TestBossungPhysics(t *testing.T) {
	a := testAnalyzer(t)
	mask := lineMask(64, 4)
	res, err := a.Sweep(mask, CutLine{X: 32, Y: 32, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	byDose := res.Bossung()
	if len(byDose) != 3 {
		t.Fatalf("Bossung dose groups %d", len(byDose))
	}
	// Higher dose ⇒ wider printed line at every focus (bright-field
	// clear mask: more dose prints more).
	for fi := 0; fi < 3; fi++ {
		low := byDose[0.98][fi].CDNM
		high := byDose[1.02][fi].CDNM
		if high < low {
			t.Fatalf("focus step %d: CD(dose 1.02)=%g < CD(dose 0.98)=%g", fi, high, low)
		}
	}
	// Defocus must not grow the line for a clear-field feature.
	nominal := byDose[1.0][0].CDNM
	defocused := byDose[1.0][2].CDNM
	if defocused > nominal+2*a.sim.PixelNM() {
		t.Fatalf("defocus grew CD: %g → %g", nominal, defocused)
	}
}

func TestMeasureCDExactWidth(t *testing.T) {
	a := testAnalyzer(t)
	mask := lineMask(64, 6) // 12 px = 384 nm — well resolved
	res, err := a.Sweep(mask, CutLine{X: 32, Y: 32, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	// Nominal CD should be within 2 px of the drawn width.
	if math.Abs(res.TargetCD-384) > 2*32 {
		t.Fatalf("nominal CD %g, drawn 384", res.TargetCD)
	}
}

func TestCDZeroWhenFeatureLost(t *testing.T) {
	a := testAnalyzer(t)
	// Empty mask prints nothing.
	res, err := a.Sweep(grid.NewField(64, 64), CutLine{X: 32, Y: 32, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.CDNM != 0 {
			t.Fatalf("empty mask CD %g at %+v", p.CDNM, p)
		}
	}
	// Out-of-grid cut is 0, not a panic.
	if _, err := a.Sweep(grid.NewField(64, 64), CutLine{X: -5, Y: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowYield(t *testing.T) {
	r := &Result{Points: []Point{
		{CDNM: 100}, {CDNM: 108}, {CDNM: 92}, {CDNM: 150}, {CDNM: 0},
	}}
	if got := r.WindowYield(100, 0.10); got != 3.0/5 {
		t.Fatalf("yield %g, want 0.6", got)
	}
	if r.WindowYield(0, 0.1) != 0 {
		t.Fatal("zero target must yield 0")
	}
	empty := &Result{}
	if empty.WindowYield(100, 0.1) != 0 {
		t.Fatal("empty result must yield 0")
	}
}

func TestSweepRejectsWrongMask(t *testing.T) {
	a := testAnalyzer(t)
	if _, err := a.Sweep(grid.NewField(32, 32), CutLine{X: 16, Y: 16}); err == nil {
		t.Fatal("mismatched mask accepted")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	c := testConfig(t)
	c.FocusSteps = 0
	if _, err := New(c, testSim(t, nil)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := New(testConfig(t), nil); err == nil {
		t.Fatal("missing session accepted")
	}
}

func TestVerticalCut(t *testing.T) {
	a := testAnalyzer(t)
	// Horizontal line measured with a vertical cut.
	n := 64
	m := grid.NewField(n, n)
	for y := 28; y < 36; y++ {
		for x := 8; x < 56; x++ {
			m.Set(x, y, 1)
		}
	}
	res, err := a.Sweep(m, CutLine{X: 32, Y: 32, Horizontal: false})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TargetCD-8*32) > 2*32 {
		t.Fatalf("vertical-cut CD %g, drawn %d", res.TargetCD, 8*32)
	}
}
