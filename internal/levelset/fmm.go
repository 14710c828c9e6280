package levelset

import (
	"math"

	"lsopc/internal/grid"
)

// ReinitializeFMM rebuilds ψ as a signed distance function, solving
// |∇T| = 1 outward from the current zero level set by fast sweeping
// (Zhao, Math. Comp. 2005). Unlike Reinitialize (which binarises the
// mask and takes the exact pixel-grid EDT), it seeds the front from the
// *sub-pixel* zero crossings interpolated along grid edges, so a contour
// sitting between pixels stays between pixels across
// reinitialisations. Every other pixel takes the first-order Godunov
// upwind update from its four neighbours in Gauss–Seidel sweeps over the
// four diagonal orders, repeated until a round of four lowers no pixel.
// The result is the fixed point of the upwind scheme a fast march
// (Sethian) solves, and the name is the one the method had as a march.
// Returns the new ψ.
func ReinitializeFMM(psi *grid.Field) *grid.Field {
	w, h := psi.W, psi.H
	out := grid.NewFieldLike(psi)
	dist := out.Data // unsigned distance to the interface until the end
	seed := make([]bool, w*h)
	inside := func(i int) bool { return psi.Data[i] <= 0 }

	// Seed: pixels with a sign change to a 4-neighbour get their
	// distance from linear interpolation of ψ along each crossing axis:
	// the zero crossing sits at frac = ψ(p)/(ψ(p)−ψ(n)) of the edge.
	// Seeds are held fixed by the sweeps.
	found := false
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pv := psi.Data[i]
			best := math.Inf(1)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h || inside(i) == inside(ny*w+nx) {
					continue
				}
				den := pv - psi.Data[ny*w+nx]
				if den == 0 {
					continue
				}
				if frac := math.Abs(pv / den); frac < best {
					best = frac
				}
			}
			dist[i] = best
			if !math.IsInf(best, 1) {
				seed[i], found = true, true
			}
		}
	}

	for lowered := found; lowered; {
		lowered = false
		for _, d := range [4][2]int{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
			if sweep(dist, seed, w, h, d[0], d[1]) {
				lowered = true
			}
		}
	}

	for i, d := range dist {
		if !found {
			d = float64(w + h) // no interface anywhere: a far constant
		}
		if inside(i) {
			d = -d
		}
		dist[i] = d
	}
	return out
}

// sweep is one Gauss–Seidel pass of the upwind update over every
// non-seed pixel, rows in y order dy (±1) and each row in x order dx
// (±1). It reports whether it lowered any pixel.
func sweep(dist []float64, seed []bool, w, h, dx, dy int) bool {
	lowered := false
	y, x0 := 0, 0
	if dy < 0 {
		y = h - 1
	}
	if dx < 0 {
		x0 = w - 1
	}
	for ; y >= 0 && y < h; y += dy {
		row, fixed := dist[y*w:(y+1)*w], seed[y*w:(y+1)*w]
		for x := x0; x >= 0 && x < w; x += dx {
			if fixed[x] {
				continue
			}
			// a and b: the nearer neighbour along each axis.
			a, b := math.Inf(1), math.Inf(1)
			if x > 0 {
				a = row[x-1]
			}
			if x < w-1 && row[x+1] < a {
				a = row[x+1]
			}
			if y > 0 {
				b = dist[(y-1)*w+x]
			}
			if y < h-1 && dist[(y+1)*w+x] < b {
				b = dist[(y+1)*w+x]
			}
			if a > b {
				a, b = b, a
			}
			if !(a < row[x]) {
				continue // the update is never below a
			}
			t := a + 1
			if b-a < 1 {
				// Solve (T−a)² + (T−b)² = 1.
				sum := a + b
				t = (sum + math.Sqrt(sum*sum-2*(a*a+b*b-1))) / 2
			}
			if t < row[x] {
				row[x] = t
				lowered = true
			}
		}
	}
	return lowered
}
