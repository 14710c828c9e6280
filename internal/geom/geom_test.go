package geom

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(10, 20, 30, 50)
	if r.W() != 20 || r.H() != 30 || r.Area() != 600 {
		t.Fatalf("rect dims wrong: %+v", r)
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !NewRect(5, 5, 5, 9).Empty() {
		t.Fatal("zero-width rect must be empty")
	}
	// NewRect normalises corner order.
	if NewRect(30, 50, 10, 20) != r {
		t.Fatal("NewRect must normalise corners")
	}
}

func TestRectIntersectsAndUnion(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	c := NewRect(10, 0, 20, 10) // abuts a, shares only an edge
	if !a.Intersects(b) {
		t.Fatal("overlapping rects must intersect")
	}
	if a.Intersects(c) {
		t.Fatal("edge-abutting half-open rects must not intersect")
	}
	u := a.Union(b)
	if u != NewRect(0, 0, 15, 15) {
		t.Fatalf("union = %+v", u)
	}
	if a.Union(Rect{}) != a || (Rect{}).Union(a) != a {
		t.Fatal("union with empty rect must be identity")
	}
}

func TestPolygonAreaMatchesRect(t *testing.T) {
	r := NewRect(3, 4, 10, 9)
	p := r.ToPolygon()
	if p.Area() != r.Area() {
		t.Fatalf("polygon area %d != rect area %d", p.Area(), r.Area())
	}
	if !p.Rectilinear() {
		t.Fatal("rect polygon must be rectilinear")
	}
}

func TestPolygonLShape(t *testing.T) {
	// L-shape: 20×10 with a 10×5 notch removed from the top-right.
	p := NewPolygon(
		Point{0, 0}, Point{20, 0}, Point{20, 5},
		Point{10, 5}, Point{10, 10}, Point{0, 10},
	)
	if !p.Rectilinear() {
		t.Fatal("L polygon must be rectilinear")
	}
	if got := p.Area(); got != 150 {
		t.Fatalf("L area = %d, want 150", got)
	}
	b := p.Bounds()
	if b != NewRect(0, 0, 20, 10) {
		t.Fatalf("bounds = %+v", b)
	}
	// Point containment inside both arms and outside the notch.
	if !p.Contains(5, 7) || !p.Contains(15, 2) {
		t.Fatal("interior points must be inside")
	}
	if p.Contains(15, 7) {
		t.Fatal("notch must be outside")
	}
}

func TestPolygonNotRectilinear(t *testing.T) {
	p := NewPolygon(Point{0, 0}, Point{10, 10}, Point{0, 10}, Point{0, 5})
	if p.Rectilinear() {
		t.Fatal("diagonal edge accepted as rectilinear")
	}
	if NewPolygon(Point{0, 0}, Point{1, 0}, Point{1, 1}).Rectilinear() {
		t.Fatal("triangle accepted")
	}
}

func TestLayoutValidate(t *testing.T) {
	ok := &Layout{Name: "t", W: 100, H: 100, Rects: []Rect{NewRect(10, 10, 30, 30)}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}

	cases := []struct {
		name string
		l    *Layout
		want error
	}{
		{"empty", &Layout{W: 10, H: 10}, ErrEmptyLayout},
		{"bad canvas", &Layout{W: 0, H: 10, Rects: []Rect{NewRect(0, 0, 1, 1)}}, ErrBadCanvas},
		{"out of canvas", &Layout{W: 10, H: 10, Rects: []Rect{NewRect(5, 5, 15, 8)}}, ErrOutOfCanvas},
		{"degenerate", &Layout{W: 10, H: 10, Rects: []Rect{{3, 3, 3, 8}}}, ErrDegenerate},
		{"overlap", &Layout{W: 100, H: 100, Rects: []Rect{NewRect(0, 0, 50, 50), NewRect(40, 40, 60, 60)}}, ErrOverlap},
		{"non-rectilinear poly", &Layout{W: 100, H: 100,
			Polys: []Polygon{NewPolygon(Point{0, 0}, Point{10, 10}, Point{0, 10}, Point{5, 5})}}, ErrNotRectilinear},
	}
	for _, tc := range cases {
		if err := tc.l.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestLayoutAreaAndBounds(t *testing.T) {
	l := &Layout{
		W: 200, H: 200,
		Rects: []Rect{NewRect(10, 10, 30, 30), NewRect(100, 100, 120, 140)},
		Polys: []Polygon{NewPolygon(Point{50, 50}, Point{70, 50}, Point{70, 60}, Point{50, 60})},
	}
	want := 20*20 + 20*40 + 20*10
	if got := l.Area(); got != want {
		t.Fatalf("area = %d, want %d", got, want)
	}
	if b := l.Bounds(); b != NewRect(10, 10, 120, 140) {
		t.Fatalf("bounds = %+v", b)
	}
	if l.ShapeCount() != 3 {
		t.Fatalf("shape count = %d", l.ShapeCount())
	}
}

func TestEdgesOutwardNormals(t *testing.T) {
	l := &Layout{W: 100, H: 100, Rects: []Rect{NewRect(20, 30, 60, 70)}}
	edges := l.Edges()
	if len(edges) != 4 {
		t.Fatalf("rect must have 4 edges, got %d", len(edges))
	}
	// Sum of edge lengths = perimeter.
	per := 0
	for _, e := range edges {
		per += e.Len()
	}
	if per != 2*(40+40) {
		t.Fatalf("perimeter = %d", per)
	}
	// Each edge's outward normal must point away from the rect centre.
	cx, cy := 40.0, 50.0
	for _, e := range edges {
		mx := float64(e.A.X+e.B.X) / 2
		my := float64(e.A.Y+e.B.Y) / 2
		if (mx-cx)*float64(e.Nx)+(my-cy)*float64(e.Ny) <= 0 {
			t.Errorf("edge %+v: normal points inward", e)
		}
		if e.Nx*e.Ny != 0 || e.Nx+e.Ny == 0 && e.Nx == 0 {
			t.Errorf("edge %+v: normal not axis-aligned unit", e)
		}
	}
}

func TestEdgesLShapeNormals(t *testing.T) {
	// Concave vertex case: the notch edges must point into the notch.
	p := NewPolygon(
		Point{0, 0}, Point{20, 0}, Point{20, 5},
		Point{10, 5}, Point{10, 10}, Point{0, 10},
	)
	l := &Layout{W: 30, H: 20, Polys: []Polygon{p}}
	edges := l.Edges()
	if len(edges) != 6 {
		t.Fatalf("L shape must have 6 edges, got %d", len(edges))
	}
	for _, e := range edges {
		// Step from edge midpoint along the outward normal: must leave
		// the polygon. Step inward: must be inside.
		mx, my := (e.A.X+e.B.X)/2, (e.A.Y+e.B.Y)/2
		// Pixel just outside: shift by normal; just inside: opposite.
		outX, outY := mx+e.Nx, my+e.Ny
		inX, inY := mx-e.Nx, my-e.Ny
		if e.Nx == 1 || e.Ny == 1 { // pixel grid offset for positive normals
			outX, outY = mx, my
			inX, inY = mx-e.Nx, my-e.Ny
		} else {
			outX, outY = mx+e.Nx, my+e.Ny
			inX, inY = mx, my
		}
		if p.Contains(outX, outY) {
			t.Errorf("edge %+v: outward pixel (%d,%d) is inside", e, outX, outY)
		}
		if !p.Contains(inX, inY) {
			t.Errorf("edge %+v: inward pixel (%d,%d) is outside", e, inX, inY)
		}
	}
}

func TestRasterizeRectExactArea(t *testing.T) {
	l := &Layout{W: 64, H: 64, Rects: []Rect{NewRect(10, 12, 34, 40)}}
	f, err := Rasterize(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(f.Sum()), l.Area(); got != want {
		t.Fatalf("raster area %d != layout area %d", got, want)
	}
	if f.At(10, 12) != 1 || f.At(33, 39) != 1 {
		t.Fatal("interior pixels not set")
	}
	if f.At(9, 12) != 0 || f.At(34, 39) != 0 || f.At(10, 40) != 0 {
		t.Fatal("pixels outside half-open rect must be clear")
	}
}

func TestRasterizePolygonExactArea(t *testing.T) {
	p := NewPolygon(
		Point{8, 8}, Point{40, 8}, Point{40, 20},
		Point{24, 20}, Point{24, 36}, Point{8, 36},
	)
	l := &Layout{W: 64, H: 64, Polys: []Polygon{p}}
	f, err := Rasterize(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(f.Sum()), p.Area(); got != want {
		t.Fatalf("raster area %d != polygon area %d", got, want)
	}
	// Notch must be empty.
	if f.At(30, 30) != 0 {
		t.Fatal("notch pixel set")
	}
	if f.At(10, 10) != 1 || f.At(30, 10) != 1 || f.At(10, 30) != 1 {
		t.Fatal("interior pixel clear")
	}
}

func TestRasterizeCoarsePitch(t *testing.T) {
	l := &Layout{W: 64, H: 64, Rects: []Rect{NewRect(0, 0, 32, 64)}}
	f, err := Rasterize(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 16 || f.H != 16 {
		t.Fatalf("coarse raster shape %dx%d", f.W, f.H)
	}
	// Left half filled, right half empty.
	if int(f.Sum()) != 8*16 {
		t.Fatalf("coarse raster sum = %g", f.Sum())
	}
}

func TestRasterizeErrors(t *testing.T) {
	l := &Layout{W: 64, H: 64, Rects: []Rect{NewRect(0, 0, 8, 8)}}
	if _, err := Rasterize(l, 0); err == nil {
		t.Fatal("pitch 0 accepted")
	}
	if _, err := Rasterize(l, 5); err == nil {
		t.Fatal("non-dividing pitch accepted")
	}
}

// Property: rasterised area equals geometric area for random rects at pitch 1.
func TestRasterAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func() bool {
		x0, y0 := rng.Intn(50), rng.Intn(50)
		w, h := 1+rng.Intn(14), 1+rng.Intn(14)
		l := &Layout{W: 64, H: 64, Rects: []Rect{NewRect(x0, y0, x0+w, y0+h)}}
		f, err := Rasterize(l, 1)
		if err != nil {
			return false
		}
		return int(f.Sum()) == w*h
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 2, 4}, {8, 2, 4}, {-7, 2, -3}, {0, 5, 0}, {1, 5, 1},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
