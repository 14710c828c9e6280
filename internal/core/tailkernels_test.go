package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/kerneltest"
)

// tailCase is one gradient sweep to check: g (|∇ψ| on entry), G, g_prev
// and v_prev over consecutive chunks of chunkLen pixels, the last one
// possibly shorter.
type tailCase struct {
	g, G, gp, v []float64
	chunkLen    int
}

func (c *tailCase) chunks() int { return (len(c.g) + c.chunkLen - 1) / c.chunkLen }

// run runs sweep on a copy of g and stale partials and returns both.
func (c *tailCase) run(sweep func(partials, g, G, gp, v []float64, chunkLen int, withPrev bool), withPrev bool) ([]float64, []float64) {
	g := slices.Clone(c.g)
	partials := make([]float64, c.chunks()*numSums)
	for i := range partials {
		partials[i] = math.Float64frombits(0x7ff80000000badd0) // stale
	}
	sweep(partials, g, c.G, c.gp, c.v, c.chunkLen, withPrev)
	return g, partials
}

// gradSumsRef is gradSums with the Go loops alone, chunk by chunk.
func gradSumsRef(partials, g, G, gp, v []float64, chunkLen int, withPrev bool) {
	for lo, c := 0, 0; lo < len(g); lo, c = lo+chunkLen, c+1 {
		hi := min(lo+chunkLen, len(g))
		sums := (*[numSums]float64)(partials[c*numSums:])
		if withPrev {
			*sums = gradSumsGo(g[lo:hi], G[lo:hi], gp[lo:hi], v[lo:hi])
		} else {
			*sums = [numSums]float64{sumGG: gradNormGo(g[lo:hi], G[lo:hi])}
		}
	}
}

func checkGradSums(t *testing.T, c *tailCase) {
	t.Helper()
	for _, withPrev := range []bool{false, true} {
		wantG, wantP := c.run(gradSumsRef, withPrev)
		gotG, gotP := c.run(gradSums, withPrev)
		for i := range wantG {
			if !kerneltest.SameBits(gotG[i], wantG[i]) {
				t.Fatalf("len %d chunk %d prev=%v: g[%d] %#x, Go loop %#x", len(c.g), c.chunkLen, withPrev, i,
					math.Float64bits(gotG[i]), math.Float64bits(wantG[i]))
			}
		}
		for i := range wantP {
			if !kerneltest.SameBits(gotP[i], wantP[i]) {
				t.Fatalf("len %d chunk %d prev=%v: chunk %d sum %d %v (%#x), Go loop %v (%#x)", len(c.g), c.chunkLen, withPrev,
					i/numSums, i%numSums, gotP[i], math.Float64bits(gotP[i]), wantP[i], math.Float64bits(wantP[i]))
			}
		}
	}
}

// checkVelocity compares velocity (kernel, then the Go loop on the
// tail) with velocityGo alone on copies of v.
func checkVelocity(t *testing.T, v, g []float64, lambda float64) {
	t.Helper()
	want, got := slices.Clone(v), slices.Clone(v)
	wantMax, gotMax := velocityGo(want, g, lambda), velocity(got, g, lambda)
	if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
		t.Fatalf("len %d λ=%v: max|v| %v, Go loop %v", len(v), lambda, gotMax, wantMax)
	}
	for i := range want {
		if !kerneltest.SameBits(got[i], want[i]) {
			t.Fatalf("len %d λ=%v element %d (g %v, v %v): kernel %#x, Go loop %#x", len(v), lambda, i, g[i], v[i],
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func newTailCase(n, chunkLen int, value func() float64) *tailCase {
	c := &tailCase{g: make([]float64, n), G: make([]float64, n), gp: make([]float64, n), v: make([]float64, n), chunkLen: chunkLen}
	for i := range c.g {
		c.g[i], c.G[i], c.gp[i], c.v[i] = value(), value(), value(), value()
	}
	return c
}

// TestTailKernelsMatchGo holds the AVX2 gradient sweep (four chunks'
// sums side by side, g = G·|∇ψ| in place) and the velocity sweep to their
// Go loops bit for bit: special values in every lane and every chunk,
// chunk counts that are and are not multiples of the lane count, a short
// last chunk, chunk lengths of every residue mod 4 (the kernel takes
// multiples of 4 only), every velocity length mod 4, stale partials,
// and long random runs. A max|v| must never be a NaN.
func TestTailKernelsMatchGo(t *testing.T) {
	if !tailAVX2OK {
		t.Skip("the CPU lacks AVX2; the tail runs its Go loops alone")
	}
	rng := rand.New(rand.NewSource(35))
	value := func() float64 { return kerneltest.Value(rng) }
	for _, chunkLen := range []int{1, 2, 3, 4, 5, 8, 12, 64} {
		for chunks := 1; chunks <= 9; chunks++ {
			for _, short := range []int{0, 1, 3} {
				if n := chunks*chunkLen - short; n > 0 && short < chunkLen {
					checkGradSums(t, newTailCase(n, chunkLen, value))
				}
			}
		}
	}
	checkGradSums(t, newTailCase(8*4096, 4096, value))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 64, 1 << 14} {
		c := newTailCase(n, 8, value)
		for _, lambda := range []float64{0, 0.37, 1, math.Inf(1), math.NaN()} {
			checkVelocity(t, c.v, c.g, lambda)
		}
	}
	// Each special against each special in every lane of every chunk.
	var vals []float64
	for _, a := range kerneltest.Specials {
		for _, b := range kerneltest.Specials {
			vals = append(vals, a, b)
		}
	}
	for _, chunkLen := range []int{4, 8, 16} {
		c := newTailCase(len(vals)/2*4, chunkLen, value)
		for i := 0; i+1 < len(vals); i += 2 {
			// Spread each pair over the four operands, rotating.
			j := (i / 2) * 4
			c.g[j], c.G[j+1], c.gp[j+2], c.v[j+3] = vals[i], vals[i], vals[i+1], vals[i+1]
			c.G[j], c.gp[j], c.v[j+1], c.g[j+2] = vals[i+1], vals[i], vals[i], vals[i+1]
		}
		checkGradSums(t, c)
		checkVelocity(t, c.v, c.g, 0.5)
		checkVelocity(t, c.gp, c.G, 0)
	}
}

// FuzzGradSumsKernelMatchesGo: chunkLen (1 to 16) and the chunk count
// come from the first two bytes; the data, cycled, fills g, G, g_prev
// and v_prev with byte operands.
func FuzzGradSumsKernelMatchesGo(f *testing.F) {
	f.Add(uint8(4), uint8(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(8), uint8(4), []byte("special lanes between ordinary ones"))
	f.Add(uint8(4), uint8(9), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210})
	f.Fuzz(func(t *testing.T, chunkLen, chunks uint8, data []byte) {
		if !tailAVX2OK {
			t.Skip("the CPU lacks AVX2")
		}
		if len(data) == 0 {
			return
		}
		k := 0
		value := func() float64 {
			k++
			return kerneltest.ByteValue(data[k%len(data)])
		}
		cl := int(chunkLen%16) + 1
		checkGradSums(t, newTailCase(cl*(int(chunks%12)+1), cl, value))
	})
}

// FuzzVelocityKernelMatchesGo: each 2 data bytes make one pixel's g and
// v_prev; lambda picks λ.
func FuzzVelocityKernelMatchesGo(f *testing.F) {
	f.Add(byte(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(0), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, lambda byte, data []byte) {
		if !tailAVX2OK {
			t.Skip("the CPU lacks AVX2")
		}
		n := len(data) / 2
		v, g := make([]float64, n), make([]float64, n)
		for i := range v {
			g[i], v[i] = kerneltest.ByteValue(data[2*i]), kerneltest.ByteValue(data[2*i+1])
		}
		l := 0.0
		if lambda != 0 {
			l = kerneltest.ByteValue(lambda)
		}
		checkVelocity(t, v, g, l)
	})
}
