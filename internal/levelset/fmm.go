package levelset

import (
	"fmt"
	"math"

	"lsopc/internal/grid"
)

// ReinitializeFMM rebuilds ψ as a signed distance function using the
// fast marching method (Sethian), solving |∇T| = 1 outward from the
// current zero level set. Unlike Reinitialize (which binarises the mask
// and takes the exact pixel-grid EDT), FMM seeds the front from the
// *sub-pixel* zero crossings interpolated along grid edges, so a contour
// sitting between pixels stays between pixels across reinitialisations.
// Cost is O(N log N). Returns the new ψ.
func ReinitializeFMM(psi *grid.Field) *grid.Field {
	out := grid.NewFieldLike(psi)
	newFMM(psi.W, psi.H).reinitializeInto(out, psi)
	return out
}

// fmm is the fast marching method's workspace for w×h fields: the
// unsigned distances, the marching states and the trial heap, allocated
// once so a caller holding one reinitialises without allocating.
//
// An fmm is NOT safe for concurrent use.
type fmm struct {
	w, h  int
	dist  []float64 // unsigned distance to the interface
	state []byte    // 0 far, 1 trial, 2 accepted
	pq    pixelHeap
}

// newFMM returns the workspace for w×h fields. The trial heap holds at
// most a few entries per front pixel; one grid's worth of capacity keeps
// it from ever regrowing in practice.
func newFMM(w, h int) *fmm {
	return &fmm{w: w, h: h, dist: make([]float64, w*h), state: make([]byte, w*h), pq: make(pixelHeap, 0, w*h)}
}

// reinitializeInto writes ReinitializeFMM(psi) into dst, bit for bit.
// dst may be psi itself: ψ is read only until the last pass, which
// reads each pixel just before overwriting it.
func (f *fmm) reinitializeInto(dst, psi *grid.Field) {
	w, h := f.w, f.h
	if psi.W != w || psi.H != h || dst.W != w || dst.H != h {
		panic(fmt.Sprintf("levelset: %dx%d FMM given fields %dx%d and %dx%d", w, h, dst.W, dst.H, psi.W, psi.H))
	}
	dist, state := f.dist, f.state
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	clear(state)
	pq := f.pq[:0]

	inside := func(i int) bool { return psi.Data[i] <= 0 }

	// Seed: pixels with a sign change to a 4-neighbour get their
	// distance from linear interpolation of ψ along each crossing axis:
	// the zero crossing sits at frac = ψ(p)/(ψ(p)−ψ(n)) of the edge.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pv := psi.Data[i]
			best := math.Inf(1)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				nv := psi.Data[ny*w+nx]
				if inside(i) == inside(ny*w+nx) {
					continue
				}
				den := pv - nv
				if den == 0 {
					continue
				}
				frac := math.Abs(pv / den)
				if frac < best {
					best = frac
				}
			}
			if !math.IsInf(best, 1) {
				dist[i] = best
				state[i] = 2
			}
		}
	}
	// Push the neighbours of accepted pixels as trial.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if state[i] != 2 {
				continue
			}
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				j := ny*w + nx
				if state[j] == 0 {
					if t := eikonalUpdate(dist, state, w, h, nx, ny); t < dist[j] {
						dist[j] = t
						state[j] = 1
						pq.push(pixelItem{idx: j, t: t})
					}
				}
			}
		}
	}

	// March.
	for len(pq) > 0 {
		it := pq.pop()
		i := it.idx
		if state[i] == 2 {
			continue // stale heap entry
		}
		if it.t > dist[i] {
			continue
		}
		state[i] = 2
		x, y := i%w, i/w
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			j := ny*w + nx
			if state[j] == 2 {
				continue
			}
			if t := eikonalUpdate(dist, state, w, h, nx, ny); t < dist[j] {
				dist[j] = t
				state[j] = 1
				pq.push(pixelItem{idx: j, t: t})
			}
		}
	}

	f.pq = pq // keep any capacity the march grew

	for i, d := range dist {
		if math.IsInf(d, 1) {
			// No interface anywhere: fall back to a far constant.
			d = float64(w + h)
		}
		if inside(i) {
			dst.Data[i] = -d
		} else {
			dst.Data[i] = d
		}
	}
}

// eikonalUpdate solves the first-order upwind discretisation of
// |∇T| = 1 at pixel (x, y) from its accepted neighbours.
func eikonalUpdate(dist []float64, state []byte, w, h, x, y int) float64 {
	axisMin := func(a, b int) float64 {
		v := math.Inf(1)
		if a >= 0 {
			if state[a] == 2 && dist[a] < v {
				v = dist[a]
			}
		}
		if b >= 0 {
			if state[b] == 2 && dist[b] < v {
				v = dist[b]
			}
		}
		return v
	}
	left, right := -1, -1
	if x > 0 {
		left = y*w + x - 1
	}
	if x < w-1 {
		right = y*w + x + 1
	}
	up, down := -1, -1
	if y > 0 {
		up = (y-1)*w + x
	}
	if y < h-1 {
		down = (y+1)*w + x
	}
	a := axisMin(left, right)
	b := axisMin(up, down)
	if a > b {
		a, b = b, a
	}
	if math.IsInf(a, 1) {
		return math.Inf(1)
	}
	if math.IsInf(b, 1) || b-a >= 1 {
		return a + 1
	}
	// Solve (T−a)² + (T−b)² = 1.
	sum := a + b
	disc := sum*sum - 2*(a*a+b*b-1)
	return (sum + math.Sqrt(disc)) / 2
}

// pixelItem is one trial entry in the marching heap.
type pixelItem struct {
	idx int
	t   float64
}

// pixelHeap is a min-heap on tentative distance. push and pop follow
// container/heap's sift-up and sift-down step for step, so entries of
// equal distance pop in the same order, without boxing every entry in an
// interface.
type pixelHeap []pixelItem

// push adds it and restores the heap order (container/heap.Push).
func (p *pixelHeap) push(it pixelItem) {
	*p = append(*p, it)
	h := *p
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].t < h[i].t) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the minimum entry (container/heap.Pop).
func (p *pixelHeap) pop() pixelItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].t < h[j1].t {
			j = j2 // right child
		}
		if !(h[j].t < h[i].t) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*p = h[:n]
	return it
}
