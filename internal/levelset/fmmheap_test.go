package levelset

import (
	"container/heap"
	"math"
	"runtime"
	"testing"

	"lsopc/internal/grid"
)

// reinitializeFMMBoxed is the container/heap formulation of
// ReinitializeFMM, kept as the reference the typed heap must reproduce.
func reinitializeFMMBoxed(psi *grid.Field) *grid.Field {
	w, h := psi.W, psi.H
	out := grid.NewField(w, h)
	dist := make([]float64, w*h)
	state := make([]byte, w*h)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	inside := func(i int) bool { return psi.Data[i] <= 0 }
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	var pq boxedHeap
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pv := psi.Data[i]
			best := math.Inf(1)
			for _, d := range dirs {
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
			if !math.IsInf(best, 1) {
				dist[i] = best
				state[i] = 2
			}
		}
	}
	relax := func(x, y int, skip byte) {
		for _, d := range dirs {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			j := ny*w + nx
			if state[j] == 2 || (skip == 1 && state[j] != 0) {
				continue
			}
			if t := eikonalUpdate(dist, state, w, h, nx, ny); t < dist[j] {
				dist[j] = t
				state[j] = 1
				heap.Push(&pq, pixelItem{idx: j, t: t})
			}
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if state[y*w+x] == 2 {
				relax(x, y, 1)
			}
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(pixelItem)
		i := it.idx
		if state[i] == 2 || it.t > dist[i] {
			continue
		}
		state[i] = 2
		relax(i%w, i/w, 0)
	}
	for i := range out.Data {
		d := dist[i]
		if math.IsInf(d, 1) {
			d = float64(w + h)
		}
		if inside(i) {
			d = -d
		}
		out.Data[i] = d
	}
	return out
}

type boxedHeap []pixelItem

func (p boxedHeap) Len() int            { return len(p) }
func (p boxedHeap) Less(i, j int) bool  { return p[i].t < p[j].t }
func (p boxedHeap) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *boxedHeap) Push(x interface{}) { *p = append(*p, x.(pixelItem)) }
func (p *boxedHeap) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// blockPsi is a redistanced field of pseudo-random 6-px blocks with its
// magnitudes distorted, a dense multi-front case with many equal-distance
// ties.
func blockPsi(n int, seed uint64) *grid.Field {
	m := grid.NewField(n, n)
	r := seed
	for by := 0; by < n; by += 6 {
		for bx := 0; bx < n; bx += 6 {
			r = r*6364136223846793005 + 1442695040888963407
			if r>>63 == 0 {
				continue
			}
			for y := by; y < by+6 && y < n; y++ {
				for x := bx; x < bx+6 && x < n; x++ {
					m.Set(x, y, 1)
				}
			}
		}
	}
	psi := SignedDistance(m)
	for i, v := range psi.Data {
		psi.Data[i] = v * (1 + 0.4*math.Sin(0.37*float64(i)))
	}
	return psi
}

// fmmFields are the ψ inputs of the typed-heap tests.
func fmmFields(n int) map[string]*grid.Field {
	disc := grid.NewField(n, n)
	c, r := float64(n)/2, float64(n)/4.3
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			d := math.Hypot(float64(x)-c, float64(y)-c) - r
			disc.Set(x, y, d*d*d)
		}
	}
	shifted := SignedDistance(rectMask(n, n/4, n/4, 3*n/4, 3*n/5))
	shifted.AddScaled(onesLike(shifted), -0.25)
	uniform := grid.NewField(n, n)
	uniform.Fill(-2)
	return map[string]*grid.Field{
		"disc":    disc,
		"shifted": shifted,
		"blocks":  blockPsi(n, 11),
		"uniform": uniform,
	}
}

// TestFMMTypedHeapMatchesContainerHeap holds ReinitializeFMM, and an
// FMM workspace reused across the fields and run in place (dst = ψ), to
// the container/heap reference bit for bit.
func TestFMMTypedHeapMatchesContainerHeap(t *testing.T) {
	for _, n := range []int{17, 48, 96} {
		f := newFMM(n, n)
		for name, psi := range fmmFields(n) {
			want := reinitializeFMMBoxed(psi)
			inPlace := psi.Clone()
			f.reinitializeInto(inPlace, inPlace)
			for form, got := range map[string]*grid.Field{"ReinitializeFMM": ReinitializeFMM(psi), "in place": inPlace} {
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s %s n=%d pixel %d: %v vs container/heap %v", form, name, n, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestFMMAllocationsIndependentOfGrid: the typed heap does not box its
// entries, so a call allocates a fixed handful of buffers at any size
// (five, plus slack for the runtime's own bookkeeping on large
// allocations); boxing made about 15k allocations at 64² and 870k at
// 512². A held FMM workspace allocates nothing. The process's first
// collection allocates its mark workers; runtime.GC runs it before any
// window is measured.
func TestFMMAllocationsIndependentOfGrid(t *testing.T) {
	const bound = 10
	runtime.GC()
	for _, n := range []int{32, 128, 256} {
		psi := blockPsi(n, 5)
		if avg := testing.AllocsPerRun(3, func() { ReinitializeFMM(psi) }); avg > bound {
			t.Fatalf("n=%d: ReinitializeFMM allocates %.0f objects/op, want ≤ %d", n, avg, bound)
		}
		f, dst := newFMM(n, n), grid.NewField(n, n)
		if avg := testing.AllocsPerRun(3, func() { f.reinitializeInto(dst, psi) }); avg != 0 {
			t.Fatalf("n=%d: fmm.reinitializeInto allocates %.0f objects/op, want 0", n, avg)
		}
	}
}
