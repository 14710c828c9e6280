package procwin

import (
	"fmt"
	"math"
	"strings"
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

// testAnalyzer builds the 6×5 sweep on a serial session.
func testAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := New(testSim(t, engine.CPU()))
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

func TestSweepMatrixShape(t *testing.T) {
	a := testAnalyzer(t)
	mask := lineMask(64, 4) // 8 px = 256 nm line
	res, err := a.Sweep(mask, CutLine{X: 32, Y: 32, Horizontal: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6*5 {
		t.Fatalf("matrix points %d, want 30", len(res.Points))
	}
	if res.TargetCD <= 0 {
		t.Fatal("nominal CD missing")
	}
	// Focus over [0, DefocusNM] and dose over 1 ± DoseVar, evenly.
	fv := a.focusValues()
	if len(fv) != 6 || fv[0] != 0 || fv[1] != 5 || fv[5] != 25 {
		t.Fatalf("focus values %v", fv)
	}
	dv := a.doseValues()
	if len(dv) != 5 || math.Abs(dv[0]-0.98) > 1e-12 || math.Abs(dv[1]-0.99) > 1e-12 || dv[2] != 1 || math.Abs(dv[4]-1.02) > 1e-12 {
		t.Fatalf("dose values %v", dv)
	}
	for i, p := range res.Points {
		if p.DefocusNM != fv[i/5] || p.Dose != dv[i%5] {
			t.Fatalf("point %d at focus %g, dose %g; want focus-major order", i, p.DefocusNM, p.Dose)
		}
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
	if len(byDose) != 5 {
		t.Fatalf("Bossung dose groups %d", len(byDose))
	}
	// Higher dose ⇒ wider printed line at every focus (bright-field
	// clear mask: more dose prints more).
	for fi := 0; fi < 6; fi++ {
		low := byDose[0.98][fi].CDNM
		high := byDose[1.02][fi].CDNM
		if high < low {
			t.Fatalf("focus step %d: CD(dose 1.02)=%g < CD(dose 0.98)=%g", fi, high, low)
		}
	}
	// Defocus must not grow the line for a clear-field feature.
	nominal := byDose[1.0][0].CDNM
	defocused := byDose[1.0][5].CDNM
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

// TestSweepRejectsWrongMask: a mask off the grid, and a cut whose pixel
// lies outside it (which would measure CD 0 at every point), fail with
// an error naming the cut and the grid.
func TestSweepRejectsWrongMask(t *testing.T) {
	a := testAnalyzer(t)
	if _, err := a.Sweep(grid.NewField(32, 32), CutLine{X: 16, Y: 16}); err == nil {
		t.Fatal("mismatched mask accepted")
	}
	n := a.sim.GridSize()
	for _, cut := range []CutLine{{X: -1, Y: 32}, {X: n, Y: 32, Horizontal: true}, {X: 32, Y: n}, {X: -5, Y: 200}} {
		_, err := a.Sweep(grid.NewField(n, n), cut)
		want := fmt.Sprintf("cut at (%d, %d) lies outside the %dx%d grid", cut.X, cut.Y, n, n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cut %+v: err %v, want one containing %q", cut, err, want)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(nil); err == nil {
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
