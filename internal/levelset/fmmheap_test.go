package levelset

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lsopc/internal/grid"
)

// reinitializeFMMBoxed is the fast-marching formulation of
// ReinitializeFMM on a container/heap, kept as the reference the sweep
// must reproduce: the same sub-pixel seeds, then every other pixel
// accepted in increasing distance order from its accepted neighbours.
// It also returns which pixels are seeds.
func reinitializeFMMBoxed(psi *grid.Field) (*grid.Field, []bool) {
	w, h := psi.W, psi.H
	out := grid.NewField(w, h)
	dist := make([]float64, w*h)
	state := make([]byte, w*h) // 0 far, 1 trial, 2 accepted
	seed := make([]bool, w*h)
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
				seed[i] = true
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
			if t := acceptedUpdate(dist, state, w, h, nx, ny); t < dist[j] {
				dist[j] = t
				state[j] = 1
				heap.Push(&pq, boxedItem{idx: j, t: t})
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
		it := heap.Pop(&pq).(boxedItem)
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
	return out, seed
}

// acceptedUpdate is eikonalUpdate restricted to the accepted neighbours,
// the march's form of the Godunov update.
func acceptedUpdate(dist []float64, state []byte, w, h, x, y int) float64 {
	masked := func(j int) float64 {
		if state[j] == 2 {
			return dist[j]
		}
		return math.Inf(1)
	}
	i := y*w + x
	a, b := math.Inf(1), math.Inf(1)
	if x > 0 {
		a = math.Min(a, masked(i-1))
	}
	if x < w-1 {
		a = math.Min(a, masked(i+1))
	}
	if y > 0 {
		b = math.Min(b, masked(i-w))
	}
	if y < h-1 {
		b = math.Min(b, masked(i+w))
	}
	if a > b {
		a, b = b, a
	}
	if math.IsInf(a, 1) {
		return math.Inf(1)
	}
	if math.IsInf(b, 1) || b-a >= 1 {
		return a + 1
	}
	sum := a + b
	disc := sum*sum - 2*(a*a+b*b-1)
	return (sum + math.Sqrt(disc)) / 2
}

type boxedItem struct {
	idx int
	t   float64
}

type boxedHeap []boxedItem

func (p boxedHeap) Len() int            { return len(p) }
func (p boxedHeap) Less(i, j int) bool  { return p[i].t < p[j].t }
func (p boxedHeap) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *boxedHeap) Push(x interface{}) { *p = append(*p, x.(boxedItem)) }
func (p *boxedHeap) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// marchTolerance bounds |sweep − march| off the seeds. It is not zero
// only because the algorithm changed: both solve the same upwind scheme,
// but the march keeps each pixel's first accepted value, which its
// visiting order can leave above the fixed point the sweep reaches
// (rounding differences a pixel inherits from its neighbours
// accumulate with distance). The largest gap measured was 1.6e-13 on the
// fields of TestSweepMatchesMarch and 1.9e-10 on the 30 coarse-to-fine
// hand-offs of Table II's B1–B10 at 512² (factors 2 and 4).
const marchTolerance = 1e-9

// checkSweepMatchesMarch holds ReinitializeFMM(ψ) to the march: every
// pixel keeps the march's sign bit and ψ's side of the contour, every
// seed is the march's bit for bit, every other pixel is within
// marchTolerance of it, and one more round of sweeps lowers no pixel.
// It also holds it to the plain sweep (checkSweepMatchesPlain). It
// returns the largest difference off the seeds.
func checkSweepMatchesMarch(t *testing.T, name string, psi *grid.Field) float64 {
	t.Helper()
	got := ReinitializeFMM(psi)
	checkSweepMatchesPlain(t, name, psi)
	want, seed := reinitializeFMMBoxed(psi)
	worst := 0.0
	for i, g := range got.Data {
		v := want.Data[i]
		switch {
		case math.Signbit(g) != math.Signbit(v) || (g <= 0) != (psi.Data[i] <= 0):
			t.Fatalf("%s pixel %d: %v, march %v, ψ %v: sign differs", name, i, g, v, psi.Data[i])
		case seed[i] && math.Float64bits(g) != math.Float64bits(v):
			t.Fatalf("%s seed pixel %d: %v, march %v", name, i, g, v)
		case math.Abs(g-v) > marchTolerance:
			t.Fatalf("%s pixel %d: %v, march %v (|Δ| %.3g > %g)", name, i, g, v, math.Abs(g-v), marchTolerance)
		}
		worst = math.Max(worst, math.Abs(g-v))
	}
	dist := make([]float64, len(got.Data))
	for i, g := range got.Data {
		dist[i] = math.Abs(g)
	}
	for _, d := range [4][2]int{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
		if sweep(dist, seed, psi.W, psi.H, d[0], d[1], newRowClock(psi.H)) {
			t.Fatalf("%s: a further sweep (%d, %d) lowered a pixel; not a fixed point", name, d[0], d[1])
		}
	}
	return worst
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

// fmmFields are the ψ inputs of the sweep-vs-march tests.
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

// TestSweepMatchesMarch holds ReinitializeFMM to the fast-marching
// reference (checkSweepMatchesMarch) on the fmmFields and on spectrally
// upsampled block fields, the coarse-to-fine hand-off's own input.
func TestSweepMatchesMarch(t *testing.T) {
	worst := 0.0
	for _, n := range []int{17, 48, 96} {
		for name, psi := range fmmFields(n) {
			worst = math.Max(worst, checkSweepMatchesMarch(t, name, psi))
		}
	}
	for _, n := range []int{32, 64} {
		worst = math.Max(worst, checkSweepMatchesMarch(t, "upsampled blocks", UpsampleSpectral(blockPsi(n, 7), 2, nil)))
	}
	t.Logf("largest |sweep − march| off the seeds: %.3g", worst)
}

// FuzzSweepMatchesMarch holds ReinitializeFMM to the fast-marching
// reference (checkSweepMatchesMarch) on grids up to 24×24: the first two
// bytes pick the width and height, each later byte one pixel (cycled
// over the grid) as a multiple of 1/8 in [−2, 2], so exact zeros and
// equal values are common.
func FuzzSweepMatchesMarch(f *testing.F) {
	f.Add(uint8(15), uint8(15), []byte{0})                         // uniform inside, no interface
	f.Add(uint8(15), uint8(15), []byte{16})                        // all exact zeros
	f.Add(uint8(12), uint8(9), append(make([]byte, 60), 30))       // one outside pixel
	f.Add(uint8(0), uint8(23), []byte{0, 30, 16, 0, 0, 20, 1})     // 1 px wide
	f.Add(uint8(23), uint8(0), []byte{30, 0, 0, 16, 25, 0, 0, 32}) // 1 px tall
	f.Add(uint8(23), uint8(23), []byte{3, 29, 16, 8, 24, 16, 5, 27, 11, 21})
	f.Fuzz(func(t *testing.T, wb, hb uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		w, h := 1+int(wb)%24, 1+int(hb)%24
		psi := grid.NewField(w, h)
		for i := range psi.Data {
			psi.Data[i] = float64(int(data[i%len(data)]%33)-16) / 8
		}
		checkSweepMatchesMarch(t, "fuzz", psi)
	})
}

// TestFMMAllocationsIndependentOfGrid: a call allocates a fixed handful
// of buffers at any size (the field, its data and the seed mask, plus
// slack for the runtime's own bookkeeping on large allocations). The
// process's first collection allocates its mark workers; runtime.GC runs
// it before any window is measured.
func TestFMMAllocationsIndependentOfGrid(t *testing.T) {
	const bound = 10
	runtime.GC()
	for _, n := range []int{32, 128, 256} {
		psi := blockPsi(n, 5)
		if avg := testing.AllocsPerRun(3, func() { ReinitializeFMM(psi) }); avg > bound {
			t.Fatalf("n=%d: ReinitializeFMM allocates %.0f objects/op, want ≤ %d", n, avg, bound)
		}
	}
}

// plainSweep is sweep visiting every row, as it did before the row
// clock: the reference the clocked sweep must reproduce.
func plainSweep(dist []float64, seed []bool, w, h, dx, dy int) bool {
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
				continue
			}
			t := a + 1
			if b-a < 1 {
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

// checkSweepMatchesPlain holds the clocked sweeps to plainSweep bit for
// bit: the same distances after the same number of rounds, and the same
// ReinitializeFMM result.
func checkSweepMatchesPlain(t *testing.T, name string, psi *grid.Field) {
	t.Helper()
	w, h := psi.W, psi.H
	got, want := make([]float64, w*h), make([]float64, w*h)
	seed, found := seedCrossings(got, psi)
	seedCrossings(want, psi)
	if !found {
		return
	}
	rounds := sweepToFixedPoint(got, seed, w, h)
	plainRounds := 0
	for lowered := true; lowered; plainRounds++ {
		lowered = false
		for _, d := range [4][2]int{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
			if plainSweep(want, seed, w, h, d[0], d[1]) {
				lowered = true
			}
		}
	}
	if rounds != plainRounds {
		t.Fatalf("%s: %d rounds, the plain sweep %d", name, rounds, plainRounds)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s pixel %d: %v, the plain sweep %v", name, i, got[i], want[i])
		}
	}
	signDistances(want, psi, found)
	for i, v := range ReinitializeFMM(psi).Data {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s pixel %d: ReinitializeFMM %v, the plain sweep %v", name, i, v, want[i])
		}
	}
}

// TestSweepMatchesPlain holds the row-clocked sweeps to the plain sweep
// bit for bit, rounds included, on the fmmFields, on upsampled block
// fields (the coarse-to-fine hand-off's own input), and on 300 random
// grids of random shape whose values are multiples of 1/8, so ties and
// exact zeros are common.
func TestSweepMatchesPlain(t *testing.T) {
	for _, n := range []int{17, 48, 96} {
		for name, psi := range fmmFields(n) {
			checkSweepMatchesPlain(t, name, psi)
		}
	}
	for _, n := range []int{32, 64} {
		checkSweepMatchesPlain(t, "upsampled blocks", UpsampleSpectral(blockPsi(n, 7), 2, nil))
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		psi := grid.NewField(w, h)
		for j := range psi.Data {
			psi.Data[j] = float64(rng.Intn(33)-16) / 8
		}
		checkSweepMatchesPlain(t, "random", psi)
	}
}
