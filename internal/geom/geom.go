// Package geom models rectilinear mask layouts — rectangles and
// axis-aligned polygons in integer nanometre coordinates — together with
// rasterisation onto simulation grids and a plain-text interchange
// format (GLP) in the spirit of the ICCAD 2013 contest clips.
//
// Coordinates are integers in nanometres. Rectangles are half-open:
// [X0,X1) × [Y0,Y1), so area and rasterisation are exact and abutting
// shapes do not double-count boundary pixels.
package geom

import (
	"errors"
	"fmt"
)

// Point is an integer nm coordinate pair.
type Point struct {
	X, Y int
}

// Rect is a half-open axis-aligned rectangle [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// NewRect returns the rectangle with the given corners, normalising the
// coordinate order.
func NewRect(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// W returns the rectangle width.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Area returns the rectangle area in nm².
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Intersects reports whether r and s share any area.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	out := r
	if s.X0 < out.X0 {
		out.X0 = s.X0
	}
	if s.Y0 < out.Y0 {
		out.Y0 = s.Y0
	}
	if s.X1 > out.X1 {
		out.X1 = s.X1
	}
	if s.Y1 > out.Y1 {
		out.Y1 = s.Y1
	}
	return out
}

// Polygon is a closed rectilinear polygon. Vertices are listed without
// repeating the first point; consecutive vertices must differ in exactly
// one coordinate (axis-aligned edges).
type Polygon struct {
	Pts []Point
}

// NewPolygon builds a polygon from a vertex list.
func NewPolygon(pts ...Point) Polygon { return Polygon{Pts: pts} }

// SignedArea2 returns twice the shoelace signed area (positive for
// counter-clockwise orientation in standard math axes).
func (p Polygon) SignedArea2() int {
	n := len(p.Pts)
	if n < 3 {
		return 0
	}
	s := 0
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		s += a.X*b.Y - b.X*a.Y
	}
	return s
}

// Area returns the unsigned polygon area in nm².
func (p Polygon) Area() int {
	a := p.SignedArea2()
	if a < 0 {
		a = -a
	}
	return a / 2
}

// Rectilinear reports whether every edge is axis-aligned and non-degenerate.
func (p Polygon) Rectilinear() bool {
	n := len(p.Pts)
	if n < 4 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		dx, dy := b.X-a.X, b.Y-a.Y
		if (dx == 0) == (dy == 0) { // both zero or both nonzero
			return false
		}
	}
	return true
}

// Bounds returns the polygon bounding box.
func (p Polygon) Bounds() Rect {
	if len(p.Pts) == 0 {
		return Rect{}
	}
	b := Rect{p.Pts[0].X, p.Pts[0].Y, p.Pts[0].X, p.Pts[0].Y}
	for _, q := range p.Pts {
		if q.X < b.X0 {
			b.X0 = q.X
		}
		if q.Y < b.Y0 {
			b.Y0 = q.Y
		}
		if q.X > b.X1 {
			b.X1 = q.X
		}
		if q.Y > b.Y1 {
			b.Y1 = q.Y
		}
	}
	return b
}

// ToPolygon converts a rectangle to an equivalent 4-vertex polygon in
// counter-clockwise order.
func (r Rect) ToPolygon() Polygon {
	return NewPolygon(
		Point{r.X0, r.Y0},
		Point{r.X1, r.Y0},
		Point{r.X1, r.Y1},
		Point{r.X0, r.Y1},
	)
}

// Contains reports whether the point (x+0.5, y+0.5) — the centre of
// pixel (x,y) — lies inside the polygon, using the even-odd rule. Using
// pixel centres makes polygon rasterisation exact for integer-coordinate
// rectilinear polygons.
func (p Polygon) Contains(x, y int) bool {
	// Cast a ray in +X from the pixel centre and count crossings of
	// vertical edges. With half-integer ray coordinates no edge or
	// vertex is ever hit exactly, so the even-odd count is robust.
	cx, cy := float64(x)+0.5, float64(y)+0.5
	n := len(p.Pts)
	inside := false
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		if a.X != b.X { // horizontal edge: never crossed by horizontal ray
			continue
		}
		yLo, yHi := float64(a.Y), float64(b.Y)
		if yLo > yHi {
			yLo, yHi = yHi, yLo
		}
		if cy > yLo && cy < yHi && float64(a.X) > cx {
			inside = !inside
		}
	}
	return inside
}

// Layout is a named collection of disjoint shapes on a W×H nm canvas.
type Layout struct {
	Name  string
	W, H  int // canvas extent in nm
	Rects []Rect
	Polys []Polygon
}

// Area returns the total pattern area in nm², assuming disjoint shapes
// (which Validate checks for rectangles).
func (l *Layout) Area() int {
	a := 0
	for _, r := range l.Rects {
		a += r.Area()
	}
	for _, p := range l.Polys {
		a += p.Area()
	}
	return a
}

// Bounds returns the bounding box of all shapes.
func (l *Layout) Bounds() Rect {
	var b Rect
	first := true
	add := func(r Rect) {
		if first {
			b = r
			first = false
		} else {
			b = b.Union(r)
		}
	}
	for _, r := range l.Rects {
		add(r)
	}
	for _, p := range l.Polys {
		add(p.Bounds())
	}
	return b
}

// ShapeCount returns the number of shapes in the layout.
func (l *Layout) ShapeCount() int { return len(l.Rects) + len(l.Polys) }

// Validation errors returned by Layout.Validate.
var (
	ErrEmptyLayout    = errors.New("geom: layout has no shapes")
	ErrBadCanvas      = errors.New("geom: canvas dimensions must be positive")
	ErrOutOfCanvas    = errors.New("geom: shape outside canvas")
	ErrDegenerate     = errors.New("geom: degenerate shape")
	ErrNotRectilinear = errors.New("geom: polygon is not rectilinear")
	ErrOverlap        = errors.New("geom: overlapping shapes")
)

// Validate checks structural invariants: positive canvas, at least one
// shape, all shapes in-bounds and non-degenerate, polygons rectilinear,
// and rectangles pairwise disjoint.
func (l *Layout) Validate() error {
	if l.W <= 0 || l.H <= 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadCanvas, l.W, l.H)
	}
	if l.ShapeCount() == 0 {
		return ErrEmptyLayout
	}
	canvas := Rect{0, 0, l.W, l.H}
	for i, r := range l.Rects {
		if r.Empty() {
			return fmt.Errorf("%w: rect %d %+v", ErrDegenerate, i, r)
		}
		if r.X0 < 0 || r.Y0 < 0 || r.X1 > canvas.X1 || r.Y1 > canvas.Y1 {
			return fmt.Errorf("%w: rect %d %+v", ErrOutOfCanvas, i, r)
		}
	}
	for i, p := range l.Polys {
		if !p.Rectilinear() {
			return fmt.Errorf("%w: polygon %d", ErrNotRectilinear, i)
		}
		if p.Area() == 0 {
			return fmt.Errorf("%w: polygon %d", ErrDegenerate, i)
		}
		b := p.Bounds()
		if b.X0 < 0 || b.Y0 < 0 || b.X1 > canvas.X1 || b.Y1 > canvas.Y1 {
			return fmt.Errorf("%w: polygon %d", ErrOutOfCanvas, i)
		}
	}
	for i := 0; i < len(l.Rects); i++ {
		for j := i + 1; j < len(l.Rects); j++ {
			if l.Rects[i].Intersects(l.Rects[j]) {
				return fmt.Errorf("%w: rects %d and %d", ErrOverlap, i, j)
			}
		}
	}
	return nil
}

// Edge is one axis-aligned boundary segment of a target shape, with the
// outward normal direction (unit vector pointing away from the pattern
// interior). EPE probes are placed along edges and displacement is
// measured along ±normal.
type Edge struct {
	A, B   Point // endpoints, A→B along the boundary
	Nx, Ny int   // outward normal (one of (±1,0),(0,±1))
}

// Len returns the edge length in nm.
func (e Edge) Len() int {
	dx, dy := e.B.X-e.A.X, e.B.Y-e.A.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Horizontal reports whether the edge runs along the X axis.
func (e Edge) Horizontal() bool { return e.A.Y == e.B.Y }

// Edges returns every boundary edge of every shape with outward normals.
// Normal orientation is determined per-edge by testing which side of the
// edge midpoint lies inside the shape.
func (l *Layout) Edges() []Edge {
	var out []Edge
	for _, r := range l.Rects {
		out = append(out, polygonEdges(r.ToPolygon())...)
	}
	for _, p := range l.Polys {
		out = append(out, polygonEdges(p)...)
	}
	return out
}

func polygonEdges(p Polygon) []Edge {
	n := len(p.Pts)
	out := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		e := Edge{A: a, B: b}
		// Midpoint of the edge in pixel units; probe one pixel to each
		// side to find the interior.
		mx, my := (a.X+b.X)/2, (a.Y+b.Y)/2
		if e.Horizontal() {
			// candidates: up (0,-1) or down (0,+1)
			if p.Contains(mx, my) { // pixel below the edge line is inside
				e.Nx, e.Ny = 0, -1
			} else {
				e.Nx, e.Ny = 0, 1
			}
		} else {
			if p.Contains(mx, my) { // pixel right of the edge line is inside
				e.Nx, e.Ny = -1, 0
			} else {
				e.Nx, e.Ny = 1, 0
			}
		}
		out = append(out, e)
	}
	return out
}
