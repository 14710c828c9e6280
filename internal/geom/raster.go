package geom

import (
	"fmt"

	"lsopc/internal/grid"
)

// Rasterize renders the layout onto a binary field at the given pixel
// pitch (nm per pixel). The canvas must divide evenly by the pitch.
// A pixel is set to 1 when its centre lies inside a shape; for integer-
// coordinate rectilinear shapes at pitch 1 this is exact, and the pixel
// count equals the pattern area in nm².
func Rasterize(l *Layout, pitchNM int) (*grid.Field, error) {
	if pitchNM <= 0 {
		return nil, fmt.Errorf("geom: pitch must be positive, got %d", pitchNM)
	}
	if l.W%pitchNM != 0 || l.H%pitchNM != 0 {
		return nil, fmt.Errorf("geom: pitch %d does not divide canvas %dx%d", pitchNM, l.W, l.H)
	}
	f := grid.NewField(l.W/pitchNM, l.H/pitchNM)
	RasterizeInto(f, l, pitchNM)
	return f, nil
}

// RasterizeInto renders the layout onto f, a zeroed field, at the given
// positive pitch, as Rasterize does; shapes beyond f's edges are
// clipped. A caller with a field of the canvas size at that pitch gets
// Rasterize's pixels without its allocation.
func RasterizeInto(f *grid.Field, l *Layout, pitchNM int) {
	for _, r := range l.Rects {
		rasterRect(f, r, pitchNM)
	}
	for _, p := range l.Polys {
		rasterPolygon(f, p, pitchNM)
	}
}

// rasterRect fills all pixels whose centres lie inside the half-open
// rectangle.
func rasterRect(f *grid.Field, r Rect, pitch int) {
	// Pixel (x,y) centre is at ((x+0.5)·pitch, (y+0.5)·pitch).
	// Centre inside [X0,X1) ⇔ X0 ≤ (x+0.5)p < X1 ⇔ ceil(X0/p - 0.5) ≤ x …
	x0 := ceilDiv(2*r.X0-pitch, 2*pitch)
	x1 := ceilDiv(2*r.X1-pitch, 2*pitch) // exclusive
	y0 := ceilDiv(2*r.Y0-pitch, 2*pitch)
	y1 := ceilDiv(2*r.Y1-pitch, 2*pitch)
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, f.W), min(y1, f.H)
	for y := y0; y < y1; y++ {
		row := f.Row(y)
		for x := x0; x < x1; x++ {
			row[x] = 1
		}
	}
}

// rasterPolygon scanline-fills a rectilinear polygon using the even-odd
// rule evaluated at pixel centres.
func rasterPolygon(f *grid.Field, p Polygon, pitch int) {
	b := p.Bounds()
	y0 := max(b.Y0/pitch, 0)
	y1 := min(ceilDiv(b.Y1, pitch), f.H)
	n := len(p.Pts)
	// Collect vertical edges once.
	type vedge struct {
		x        int
		yLo, yHi int
	}
	edges := make([]vedge, 0, n/2)
	for i := 0; i < n; i++ {
		a, c := p.Pts[i], p.Pts[(i+1)%n]
		if a.X != c.X {
			continue
		}
		lo, hi := a.Y, c.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		edges = append(edges, vedge{a.X, lo, hi})
	}
	xs := make([]int, 0, len(edges))
	for y := y0; y < y1; y++ {
		cy2 := 2*y*pitch + pitch // 2 × pixel-centre y
		xs = xs[:0]
		for _, e := range edges {
			if cy2 > 2*e.yLo && cy2 < 2*e.yHi {
				xs = append(xs, e.x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		sortInts(xs)
		row := f.Row(y)
		for i := 0; i+1 < len(xs); i += 2 {
			// Fill pixels whose centre x lies in [xs[i], xs[i+1]).
			px0 := ceilDiv(2*xs[i]-pitch, 2*pitch)
			px1 := ceilDiv(2*xs[i+1]-pitch, 2*pitch)
			px0, px1 = max(px0, 0), min(px1, f.W)
			for x := px0; x < px1; x++ {
				row[x] = 1
			}
		}
	}
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// sortInts is a small insertion sort; scanline crossing lists hold only
// a handful of entries.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
