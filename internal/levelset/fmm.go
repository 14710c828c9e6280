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
// four diagonal orders, repeated until a round of four lowers no pixel
// (skipping the rows that cannot change).
// The result is the fixed point of the upwind scheme a fast march
// (Sethian) solves, and the name is the one the method had as a march.
// Returns the new ψ.
func ReinitializeFMM(psi *grid.Field) *grid.Field {
	out := grid.NewFieldLike(psi)
	dist := out.Data // unsigned distance to the interface until the end
	seed, found := seedCrossings(dist, psi)
	if found {
		sweepToFixedPoint(dist, seed, psi.W, psi.H)
	}
	signDistances(dist, psi, found)
	return out
}

// seedCrossings sets dist to the seeds' distances and +Inf elsewhere,
// and reports which pixels are seeds and whether there is any. Pixels
// with a sign change to a 4-neighbour get their distance from linear
// interpolation of ψ along each crossing axis: the zero crossing sits
// at frac = ψ(p)/(ψ(p)−ψ(n)) of the edge. Seeds are held fixed by the
// sweeps.
func seedCrossings(dist []float64, psi *grid.Field) (seed []bool, found bool) {
	w, h := psi.W, psi.H
	seed = make([]bool, w*h)
	inside := func(i int) bool { return psi.Data[i] <= 0 }
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
	return seed, found
}

// sweepToFixedPoint runs rounds of the four diagonal sweeps until a
// round lowers no pixel, and returns the number of rounds. A row is
// visited only when it, or a row next to it, lowered a pixel at or
// after the start of the row's last visit (rowClock): otherwise every
// value its update reads is what its last visit read, and that visit
// lowered nothing, so the row is a fixed point in any order and
// skipping it leaves the sequence of states, and the round count, as
// the plain sweep has them.
func sweepToFixedPoint(dist []float64, seed []bool, w, h int) (rounds int) {
	clk := newRowClock(h)
	for lowered := true; lowered; rounds++ {
		lowered = false
		for _, d := range [4][2]int{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
			if sweep(dist, seed, w, h, d[0], d[1], clk) {
				lowered = true
			}
		}
	}
	return rounds
}

// rowClock stamps the row visits of the sweeps: now counts visits,
// visit[y] is the stamp of row y's last visit and lowered[y] that of the
// last visit in which row y lowered a pixel (0 before any, so every row
// is visited first).
type rowClock struct {
	visit, lowered []int
	now            int
}

// newRowClock is the clock of h rows none of which has been visited.
func newRowClock(h int) *rowClock {
	return &rowClock{visit: make([]int, h), lowered: make([]int, h)}
}

// stale reports whether row y can change: whether it or a neighbouring
// row lowered a pixel at or after the start of y's last visit.
func (c *rowClock) stale(y int) bool {
	last := c.lowered[y]
	if y > 0 {
		last = max(last, c.lowered[y-1])
	}
	if y < len(c.lowered)-1 {
		last = max(last, c.lowered[y+1])
	}
	return last >= c.visit[y]
}

// signDistances turns the unsigned distances into ψ's signed ones:
// negative inside (ψ ≤ 0); with no interface anywhere every pixel gets
// the far constant w+h.
func signDistances(dist []float64, psi *grid.Field, found bool) {
	for i, d := range dist {
		if !found {
			d = float64(psi.W + psi.H)
		}
		if psi.Data[i] <= 0 {
			d = -d
		}
		dist[i] = d
	}
}

// sweep is one Gauss–Seidel pass of the upwind update over every
// non-seed pixel, rows in y order dy (±1) and each row in x order dx
// (±1), visiting only the rows the clock finds stale. It reports whether
// it lowered any pixel.
func sweep(dist []float64, seed []bool, w, h, dx, dy int, clk *rowClock) bool {
	lowered := false
	y, x0 := 0, 0
	if dy < 0 {
		y = h - 1
	}
	if dx < 0 {
		x0 = w - 1
	}
	for ; y >= 0 && y < h; y += dy {
		if !clk.stale(y) {
			continue
		}
		clk.now++
		clk.visit[y] = clk.now
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
				clk.lowered[y] = clk.now
			}
		}
	}
	return lowered
}
