package metrics

import (
	"math"
	"testing"

	"lsopc/internal/geom"
	"lsopc/internal/grid"
)

// rasterLayout renders the layout at the given pitch, failing the test
// on error.
func rasterLayout(t *testing.T, l *geom.Layout, pitch int) *grid.Field {
	t.Helper()
	f, err := geom.Rasterize(l, pitch)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func squareLayout(canvas, x0, y0, x1, y1 int) *geom.Layout {
	return &geom.Layout{
		Name: "t", W: canvas, H: canvas,
		Rects: []geom.Rect{geom.NewRect(x0, y0, x1, y1)},
	}
}

func TestProbesSpacingAndCount(t *testing.T) {
	// 160-wide, 80-tall rectangle: horizontal edges get 4 probes each
	// (160/40), vertical edges 2 each → 12 total.
	l := squareLayout(512, 100, 100, 260, 180)
	probes := Probes(l)
	if len(probes) != 12 {
		t.Fatalf("probe count = %d, want 12", len(probes))
	}
	for _, p := range probes {
		// Probes must lie on the rectangle boundary.
		onV := (p.X == 100 || p.X == 260) && p.Y >= 100 && p.Y <= 180
		onH := (p.Y == 100 || p.Y == 180) && p.X >= 100 && p.X <= 260
		if !onV && !onH {
			t.Errorf("probe (%g,%g) off boundary", p.X, p.Y)
		}
		if math.Hypot(p.Nx, p.Ny) != 1 {
			t.Errorf("probe normal not unit: (%g,%g)", p.Nx, p.Ny)
		}
	}
}

func TestProbesShortEdgeGetsMidpoint(t *testing.T) {
	// A 30 nm edge is shorter than the 40 nm spacing: one probe at its
	// midpoint.
	l := squareLayout(256, 100, 100, 130, 200)
	probes := Probes(l)
	foundTop := false
	for _, p := range probes {
		if p.Y == 100 && p.X == 115 {
			foundTop = true
		}
	}
	if !foundTop {
		t.Fatal("short edge midpoint probe missing")
	}
}

func TestContourDistancePerfectPrint(t *testing.T) {
	l := squareLayout(256, 64, 64, 192, 192)
	printed := rasterLayout(t, l, 1)
	const pixelNM = 1
	for _, p := range Probes(l) {
		if d := ContourDistance(printed, p, pixelNM); d != 0 {
			t.Fatalf("perfect print: probe (%g,%g) distance %g", p.X, p.Y, d)
		}
	}
	v, dists := EPE(printed, Probes(l), pixelNM)
	if v != 0 {
		t.Fatalf("perfect print: %d violations", v)
	}
	for _, d := range dists {
		if d != 0 {
			t.Fatal("nonzero distance on perfect print")
		}
	}
}

func TestContourDistanceUniformShrink(t *testing.T) {
	target := squareLayout(256, 64, 64, 192, 192)
	// Printed image is shrunk by 10 nm on every side.
	shrunk := squareLayout(256, 74, 74, 182, 182)
	printed := rasterLayout(t, shrunk, 1)
	const pixelNM = 1
	probes := Probes(target)
	for _, p := range probes {
		d := ContourDistance(printed, p, pixelNM)
		if math.Abs(d-10) > 1.5 {
			t.Fatalf("probe (%g,%g): distance %g, want ≈10", p.X, p.Y, d)
		}
	}
	// 10 nm < 15 nm threshold: no violations.
	if v, _ := EPE(printed, probes, pixelNM); v != 0 {
		t.Fatalf("10 nm shrink flagged %d violations", v)
	}
}

func TestContourDistanceLargeShiftViolates(t *testing.T) {
	target := squareLayout(256, 64, 64, 192, 192)
	// 20 nm overgrowth on every side: all probes violate (20 ≥ 15).
	grown := squareLayout(256, 44, 44, 212, 212)
	printed := rasterLayout(t, grown, 1)
	const pixelNM = 1
	probes := Probes(target)
	v, dists := EPE(printed, probes, pixelNM)
	if v != len(probes) {
		t.Fatalf("%d/%d probes violated, want all", v, len(probes))
	}
	for _, d := range dists {
		if math.Abs(d-20) > 1.5 {
			t.Fatalf("distance %g, want ≈20", d)
		}
	}
}

func TestContourDistanceMissingPattern(t *testing.T) {
	target := squareLayout(256, 64, 64, 192, 192)
	printed := grid.NewField(256, 256) // nothing printed
	const pixelNM = 1
	probes := Probes(target)
	v, dists := EPE(printed, probes, pixelNM)
	if v != len(probes) {
		t.Fatal("missing pattern must violate every probe")
	}
	for _, d := range dists {
		if d != maxSearchNM {
			t.Fatalf("distance %g, want max search %d", d, maxSearchNM)
		}
	}
}

func TestContourDistanceCoarsePixels(t *testing.T) {
	// Same geometry at 4 nm/px must still measure ≈12 nm displacement.
	target := squareLayout(512, 128, 128, 384, 384)
	shifted := squareLayout(512, 116, 116, 396, 396) // +12 nm growth
	printed := rasterLayout(t, shifted, 4)
	const pixelNM = 4
	for _, p := range Probes(target) {
		d := ContourDistance(printed, p, pixelNM)
		if math.Abs(d-12) > 4 {
			t.Fatalf("coarse-grid distance %g, want ≈12±4", d)
		}
	}
}

func TestPVBand(t *testing.T) {
	outer := rasterLayout(t, squareLayout(128, 30, 30, 90, 90), 1)
	inner := rasterLayout(t, squareLayout(128, 34, 34, 86, 86), 1)
	want := float64(60*60 - 52*52)
	if got := PVBand(outer, inner, 1); got != want {
		t.Fatalf("PVB = %g, want %g", got, want)
	}
	// Pixel pitch scales the area quadratically.
	if got := PVBand(outer, inner, 2); got != want*4 {
		t.Fatalf("PVB at 2nm/px = %g, want %g", got, want*4)
	}
	if PVBand(outer, outer, 1) != 0 {
		t.Fatal("identical contours must give zero PVB")
	}
}

func TestLabelComponents(t *testing.T) {
	img := grid.NewField(8, 8)
	// Two separate blobs.
	img.Set(1, 1, 1)
	img.Set(2, 1, 1)
	img.Set(6, 6, 1)
	_, n := labelComponents(img)
	if n != 2 {
		t.Fatalf("component count = %d, want 2", n)
	}
	// Diagonal pixels are NOT connected (4-connectivity).
	img2 := grid.NewField(4, 4)
	img2.Set(0, 0, 1)
	img2.Set(1, 1, 1)
	_, n = labelComponents(img2)
	if n != 2 {
		t.Fatalf("diagonal pixels merged: %d components", n)
	}
	// Empty image.
	_, n = labelComponents(grid.NewField(4, 4))
	if n != 0 {
		t.Fatal("empty image has components")
	}
}

func TestShapeViolationsClean(t *testing.T) {
	l := &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(60, 60, 100, 100),
	}}
	target := rasterLayout(t, l, 1)
	if got := ShapeViolations(target, target); got != 0 {
		t.Fatalf("perfect print has %d violations", got)
	}
}

func TestShapeViolationsMissing(t *testing.T) {
	l := &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(60, 60, 100, 100),
	}}
	target := rasterLayout(t, l, 1)
	// Only the first shape prints.
	printed := rasterLayout(t, &geom.Layout{W: 128, H: 128,
		Rects: []geom.Rect{geom.NewRect(10, 10, 40, 40)}}, 1)
	if got := ShapeViolations(printed, target); got != 1 {
		t.Fatalf("missing shape: %d violations, want 1", got)
	}
}

func TestShapeViolationsStray(t *testing.T) {
	target := rasterLayout(t, squareLayout(128, 10, 10, 40, 40), 1)
	printed := rasterLayout(t, &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(80, 80, 90, 90), // stray blob
	}}, 1)
	if got := ShapeViolations(printed, target); got != 1 {
		t.Fatalf("stray blob: %d violations, want 1", got)
	}
}

func TestShapeViolationsBridge(t *testing.T) {
	// Two target shapes printed as one connected blob.
	target := rasterLayout(t, &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(50, 10, 80, 40),
	}}, 1)
	printed := rasterLayout(t, squareLayout(128, 10, 10, 80, 40), 1)
	if got := ShapeViolations(printed, target); got != 1 {
		t.Fatalf("bridge: %d violations, want 1", got)
	}
}

func TestShapeViolationsBreak(t *testing.T) {
	// One target shape printed as two pieces.
	target := rasterLayout(t, squareLayout(128, 10, 10, 80, 40), 1)
	printed := rasterLayout(t, &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(50, 10, 80, 40),
	}}, 1)
	if got := ShapeViolations(printed, target); got != 1 {
		t.Fatalf("break: %d violations, want 1", got)
	}
}

func TestShapeViolationsEmptyTarget(t *testing.T) {
	printed := rasterLayout(t, squareLayout(64, 10, 10, 20, 20), 1)
	empty := grid.NewField(64, 64)
	if got := ShapeViolations(printed, empty); got != 1 {
		t.Fatalf("stray on empty target: %d, want 1", got)
	}
	if got := ShapeViolations(empty, empty); got != 0 {
		t.Fatal("empty/empty must be clean")
	}
}

func TestScoreFunction(t *testing.T) {
	r := Report{EPEViolations: 2, PVBandNM2: 50000, ShapeViolations: 1, RuntimeSec: 100}
	want := 100 + 4*50000.0 + 5000*2.0 + 10000*1.0
	if got := r.Score(); got != want {
		t.Fatalf("score = %g, want %g", got, want)
	}
	// Score is monotone in each component.
	base := Report{PVBandNM2: 1000}
	if !(Report{EPEViolations: 1, PVBandNM2: 1000}).ScoreGreater(base) {
		t.Fatal("EPE must increase score")
	}
}

// ScoreGreater is a test helper comparing scores.
func (r Report) ScoreGreater(o Report) bool { return r.Score() > o.Score() }

func TestReportString(t *testing.T) {
	r := Report{EPEViolations: 1, PVBandNM2: 2, ShapeViolations: 3, RuntimeSec: 4}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
	}
}

// TestShapeViolationsReusesLabels: the recycled label fields come back
// zeroed, so interleaved calls on different images and grid sizes give
// the same counts as the first call on each.
func TestShapeViolationsReusesLabels(t *testing.T) {
	target := rasterLayout(t, &geom.Layout{W: 128, H: 128, Rects: []geom.Rect{
		geom.NewRect(10, 10, 40, 40), geom.NewRect(50, 10, 80, 40),
	}}, 1)
	bridged := rasterLayout(t, squareLayout(128, 10, 10, 80, 40), 1)
	small := rasterLayout(t, squareLayout(64, 10, 10, 40, 40), 1)
	for i := 0; i < 3; i++ {
		if got := ShapeViolations(bridged, target); got != 1 {
			t.Fatalf("round %d: bridge: %d violations, want 1", i, got)
		}
		if got := ShapeViolations(target, target); got != 0 {
			t.Fatalf("round %d: perfect print has %d violations", i, got)
		}
		if got := ShapeViolations(small, small); got != 0 {
			t.Fatalf("round %d: 64 px perfect print has %d violations", i, got)
		}
	}
}
