// Package fft implements the fast Fourier transforms that replace cuFFT
// in the paper's pipeline: an iterative radix-2 complex FFT with fused
// stages and precomputed twiddle/bit-reversal plans, and BatchPlan2D,
// the one 2-D transform, which runs whole field stacks (and the
// real-input and real-output passes) over an engine's workers.
//
// The butterfly sweeps and the column passes' data movement (the
// gathers into and scatters out of the column scratch, and the real
// rows' pack) have two kernels: Go loops, and on amd64 hosts whose CPU
// and OS support AVX2 an assembly kernel (kernel_amd64.s) that moves or
// transforms two complex128 per instruction. The choice is made once,
// from CPUID, and both give the same bits.
//
// Sizes must be powers of two. The lithography pipeline always runs on
// power-of-two grids (the ICCAD 2013 clips are 2048×2048 at 1 nm/px), so
// no Bluestein fallback is needed; NewPlan rejects other sizes loudly.
package fft

import (
	"fmt"
	"math"
	"sync"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Plan-cache metrics in the default registry. Lookups happen at bank
// and session construction, never in the per-iteration hot path.
var (
	mPlanHits   = obs.Default.Counter("fft.plan_cache.hits")
	mPlanMisses = obs.Default.Counter("fft.plan_cache.misses")
)

// The fft.kernel_avx2 gauge says which kernel, butterflies and column
// movement, produced a run's timings: 1 for the AVX2 assembly, 0 for
// the Go loops.
func init() {
	g := obs.Default.Gauge("fft.kernel_avx2")
	if fastKernel != &goKernel {
		g.Set(1)
	}
}

// tracePlanCache reports one cache lookup to the runtime trace sink.
func tracePlanCache(n int, hit bool) {
	if s := obs.Runtime(); s != nil {
		s.Emit(obs.Event{Type: obs.EventPlanCache, Name: "plan1d", N: n, Hit: hit})
	}
}

// Plan holds the precomputed tables for 1-D transforms of a fixed
// power-of-two length. A Plan is immutable after creation and safe for
// concurrent use.
type Plan struct {
	n     int
	swaps []int32      // bit-reversal swap pairs (i, j), i < j, flattened
	rev   []int32      // rev[i] = i with its bits reversed
	tw    []complex128 // forward twiddles, stage-major (see twiddles)
	twinv []complex128 // inverse twiddles, same layout
	k     *kernel      // butterfly sweeps: fastKernel from length 8 up
}

// NewPlan creates a transform plan for length n. It panics unless n is a
// positive power of two.
func NewPlan(n int) *Plan {
	if !grid.IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	p := &Plan{n: n, rev: make([]int32, n), k: &goKernel}
	if n >= 8 {
		p.k = fastKernel
	}
	shift := 0
	for 1<<shift < n {
		shift++
	}
	for i := 0; i < n; i++ {
		j := int(reverseBits(uint32(i), shift))
		p.rev[i] = int32(j)
		if i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	w := make([]complex128, n/2)
	winv := make([]complex128, n/2)
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(c, s)
		winv[k] = complex(c, -s)
	}
	p.tw = twiddles(w, n)
	p.twinv = twiddles(winv, n)
	return p
}

// twiddles lays the length-n table w (w[k] = e^{∓2πik/n}, k < n/2) out
// stage-major: the stage with half-size h occupies [h-1, 2h-1) and holds
// w[k·n/(2h)] for k < h, so every stage reads its twiddles contiguously.
// The values are copied, never recomputed, which keeps each butterfly's
// twiddle bit-identical to the textbook loop's tw[k·step].
func twiddles(w []complex128, n int) []complex128 {
	t := make([]complex128, 0, n)
	for h := 1; h < n; h <<= 1 {
		step := n / (2 * h)
		for k := 0; k < h; k++ {
			t = append(t, w[k*step])
		}
	}
	return t
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

func reverseBits(v uint32, bits int) uint32 {
	var r uint32
	for i := 0; i < bits; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// Forward computes the in-place unnormalised DFT of x.
// It panics if len(x) differs from the plan length.
func (p *Plan) Forward(x []complex128) { p.transform(x, p.tw) }

// twiddleTable returns the stage-major twiddles of the inverse or the
// forward transform.
func (p *Plan) twiddleTable(inverse bool) []complex128 {
	if inverse {
		return p.twinv
	}
	return p.tw
}

// transform runs the unnormalised transform selected by the twiddle
// table (p.tw forward, p.twinv inverse): the bit-reversal permutation,
// then the butterfly network.
func (p *Plan) transform(x []complex128, tw []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
	sw := p.swaps
	for k := 0; k+1 < len(sw); k += 2 {
		i, j := sw[k], sw[k+1]
		x[i], x[j] = x[j], x[i]
	}
	p.butterflies(x, tw)
}

// butterflies runs the iterative radix-2 Cooley–Tukey butterfly network
// with the supplied stage-major twiddle table (forward or inverse) on x
// already in bit-reversed order, so a caller that gathers its input in
// that order (the 2-D column passes) skips the swap pass. len(x) must
// be the plan length.
func (p *Plan) butterflies(x []complex128, tw []complex128) { p.k.run(x, tw) }

// kernel is one implementation of the butterfly network's three sweeps
// and of the 2-D column passes' data movement (batch.go): gathers into
// and scatters out of the bit-reversed column scratch of one full
// colBlock-wide block, and realRows' pack of two real rows into one
// complex row. The column passes use their column plan's kernel, the
// pack its row plan's.
type kernel struct {
	radix4First func(x []complex128, w2 complex128)
	stagePair   func(x []complex128, h int, t1, t2 []complex128)
	stage       func(x []complex128, h int, tw []complex128)

	gather        func(s, src []complex128, rev []int32, w, lo, hi int)
	gatherPairs   func(s, src []complex128, rev []int32, w, lo, hi int)
	scatter       func(dst, s []complex128, w, h int)
	scatterScaled func(dst, s []complex128, w, h int, sc float64)
	scatterReal   func(dst []float64, s []complex128, w, h int, sc float64)
	pack          func(d []complex128, r0, r1 []float64)
}

// goKernel is the Go loops below and in batch.go. It runs plans
// shorter than 8 and, on hosts without the AVX2 kernel, every plan; the
// tests hold the selected kernel to it bit for bit.
var goKernel = kernel{
	radix4First:   radix4First,
	stagePair:     stagePair,
	stage:         stage,
	gather:        gatherBlock,
	gatherPairs:   gatherPairsBlock,
	scatter:       scatterBlock,
	scatterScaled: scatterScaledBlock,
	scatterReal:   scatterRealBlock,
	pack:          packRows,
}

// run is the network on x (length a power of two) in bit-reversed
// order with the stage-major twiddles tw.
//
// Every butterfly is t := w·b; a, b = a+t, a−t with the textbook loop's
// twiddle, so the result is bit-identical to one memory sweep per stage
// except that the multiply by the exact-1 twiddle (index 0 of every
// stage) is skipped, which can only flip the sign of an exact zero.
// Only the sweeps are fused: stages 1 and 2 run as one pass over
// 4-element blocks, each later pair of stages (h, 2h) as one pass over
// the quarter-slices of every 4h block, and an odd last stage alone.
func (k *kernel) run(x []complex128, tw []complex128) {
	n := len(x)
	h := 1
	if n >= 4 {
		k.radix4First(x, tw[2])
		h = 4
	}
	for ; 4*h <= n; h *= 4 {
		k.stagePair(x, h, tw[h-1:2*h-1], tw[2*h-1:4*h-1])
	}
	if 2*h == n {
		k.stage(x, h, tw[h-1:2*h-1])
	}
}

// radix4First runs stages 1 and 2 over every 4-element block. Their
// twiddles are 1, 1 and w2 (the stage-2 twiddle of index 1).
func radix4First(x []complex128, w2 complex128) {
	for b := 0; b+3 < len(x); b += 4 {
		q := x[b : b+4 : b+4]
		a0, a1 := q[0]+q[1], q[0]-q[1]
		a2, a3 := q[2]+q[3], q[2]-q[3]
		t := w2 * a3
		q[0], q[2] = a0+a2, a0-a2
		q[1], q[3] = a1+t, a1-t
	}
}

// stagePair runs the stages of half-size h and 2h in one sweep: for each
// 4h block and j < h it loads the quarter-slice elements j, j+h, j+2h,
// j+3h, applies the stage-h butterflies (j, j+h) and (j+2h, j+3h) with
// t1[j], then the stage-2h butterflies (j, j+2h) with t2[j] and
// (j+h, j+3h) with t2[j+h].
func stagePair(x []complex128, h int, t1, t2 []complex128) {
	t1 = t1[:h]
	t2lo, t2hi := t2[:h], t2[h:2*h]
	for b := 0; b+4*h <= len(x); b += 4 * h {
		q0 := x[b : b+h : b+h]
		q1 := x[b+h : b+2*h : b+2*h][:len(q0)]
		q2 := x[b+2*h : b+3*h : b+3*h][:len(q0)]
		q3 := x[b+3*h : b+4*h : b+4*h][:len(q0)]
		// j = 0: t1[0] and t2[0] are exactly 1.
		a0, a1, a2, a3 := q0[0], q1[0], q2[0], q3[0]
		a0, a1 = a0+a1, a0-a1
		a2, a3 = a2+a3, a2-a3
		t := t2hi[0] * a3
		q0[0], q2[0] = a0+a2, a0-a2
		q1[0], q3[0] = a1+t, a1-t
		for j := 1; j < len(q0); j++ {
			w1 := t1[j]
			a0, a1, a2, a3 := q0[j], q1[j], q2[j], q3[j]
			t := w1 * a1
			a0, a1 = a0+t, a0-t
			t = w1 * a3
			a2, a3 = a2+t, a2-t
			t = t2lo[j] * a2
			q0[j], q2[j] = a0+t, a0-t
			t = t2hi[j] * a3
			q1[j], q3[j] = a1+t, a1-t
		}
	}
}

// stage runs the single stage of half-size h with twiddles tw (tw[0] = 1).
func stage(x []complex128, h int, tw []complex128) {
	for b := 0; b+2*h <= len(x); b += 2 * h {
		lo := x[b : b+h : b+h]
		hi := x[b+h : b+2*h : b+2*h][:len(lo)]
		t := tw[:len(lo)]
		lo[0], hi[0] = lo[0]+hi[0], lo[0]-hi[0]
		for j := 1; j < len(lo); j++ {
			u, v := lo[j], t[j]*hi[j]
			lo[j], hi[j] = u+v, u-v
		}
	}
}

// planCache caches plans by length; its zero value is an empty cache.
// Plans are tiny relative to field data, so a cache never evicts. Safe
// for concurrent use: sessions and pipelines are constructed from many
// goroutines, so first-time creation takes a write lock while the
// steady state pays only a read lock.
type planCache struct {
	mu sync.RWMutex
	m  map[int]*Plan
}

// plans is the process-wide cache behind CachedPlan.
var plans planCache

// CachedPlan returns the process-wide shared plan for length n,
// creating it on first use.
func CachedPlan(n int) *Plan { return plans.get(n) }

// get returns the cached plan for length n, creating it on a miss.
func (c *planCache) get(n int) *Plan {
	c.mu.RLock()
	p := c.m[n]
	c.mu.RUnlock()
	if p != nil {
		mPlanHits.Inc()
		tracePlanCache(n, true)
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.m[n]; ok {
		mPlanHits.Inc()
		tracePlanCache(n, true)
		return p
	}
	if c.m == nil {
		c.m = make(map[int]*Plan)
	}
	p = NewPlan(n)
	c.m[n] = p
	mPlanMisses.Inc()
	tracePlanCache(n, false)
	return p
}
