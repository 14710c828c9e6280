package litho

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/kerneltest"
)

func skipWithoutKernels(t *testing.T) {
	t.Helper()
	if !kernelsAVX2OK {
		t.Skip("the CPU lacks AVX2; the per-pixel loops run in Go alone")
	}
}

// checkReduce compares reduce (kernel, then the Go loop on the tail)
// with reduceGo alone, both accumulating into copies of d, whose stale
// values take part in the sum.
func checkReduce(t *testing.T, d []float64, f []complex128, w float64) {
	t.Helper()
	want, got := slices.Clone(d), slices.Clone(d)
	reduceGo(want, f, w)
	reduce(got, f, w)
	for i := range want {
		if !kerneltest.SameBits(got[i], want[i]) {
			t.Fatalf("len %d w=%v element %d (d %v, f %v): kernel %v (%#x), Go loop %v (%#x)",
				len(d), w, i, d[i], f[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAdjoint compares adjointProduct with adjointGo on copies of e.
func checkAdjoint(t *testing.T, e []complex128, w []float64) {
	t.Helper()
	want, got := slices.Clone(e), slices.Clone(e)
	adjointGo(want, w)
	adjointProduct(got, w)
	for i := range want {
		if !kerneltest.SameBits(real(got[i]), real(want[i])) || !kerneltest.SameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("len %d element %d (w %#x, e %#x %#x): kernel %#x %#x, Go loop %#x %#x", len(e), i, math.Float64bits(w[i]), math.Float64bits(real(e[i])), math.Float64bits(imag(e[i])), math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])), math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// sweepCase is one cost and sensitivity pass to check: per corner its
// bank, resist image, factor and starting sum, the banks' stale planes
// and the target.
type sweepCase struct {
	bank   []int
	r      [][]float64
	scale  []float64
	sum0   []float64
	planes [][]float64
	tg     []float64
}

// run builds the case's corners over fresh copies of the planes and runs
// pass on them, returning the sums and the planes.
func (c *sweepCase) run(pass func([]costCorner, []float64)) ([]float64, [][]float64) {
	planes := make([][]float64, len(c.planes))
	for b := range planes {
		planes[b] = slices.Clone(c.planes[b])
	}
	cs := make([]costCorner, len(c.bank))
	for i, b := range c.bank {
		cs[i] = costCorner{r: c.r[i], w: planes[b], scale: c.scale[i], first: slices.Index(c.bank, b) == i, sum: c.sum0[i]}
	}
	pass(cs, c.tg)
	sums := make([]float64, len(cs))
	for i := range cs {
		sums[i] = cs[i].sum
	}
	return sums, planes
}

// costSensRef is the pass as one corner after another through the Go
// loop, the first corner of each bank clearing its plane.
func costSensRef(cs []costCorner, tg []float64) {
	for i := range cs {
		c := &cs[i]
		if c.first {
			clear(c.w)
		}
		c.sum = costSensGo(c.w, c.r, tg, c.scale, c.sum)
	}
}

func checkCostSens(t *testing.T, c *sweepCase) {
	t.Helper()
	wantSums, wantPlanes := c.run(costSensRef)
	gotSums, gotPlanes := c.run(costSens)
	for i := range wantSums {
		if !kerneltest.SameBits(gotSums[i], wantSums[i]) {
			t.Fatalf("banks %v len %d: corner %d sum %v (%#x), Go loop %v (%#x)", c.bank, len(c.tg), i,
				gotSums[i], math.Float64bits(gotSums[i]), wantSums[i], math.Float64bits(wantSums[i]))
		}
	}
	for b := range wantPlanes {
		for j := range wantPlanes[b] {
			if !kerneltest.SameBits(gotPlanes[b][j], wantPlanes[b][j]) {
				t.Fatalf("banks %v len %d: plane %d pixel %d: kernel %v (%#x), Go loop %v (%#x)", c.bank, len(c.tg), b, j,
					gotPlanes[b][j], math.Float64bits(gotPlanes[b][j]), wantPlanes[b][j], math.Float64bits(wantPlanes[b][j]))
			}
		}
	}
}

// newSweepCase draws a case of n pixels for the given corner banks:
// resist values mostly in [0, 1] as σ gives them, specials among them,
// and stale planes.
func newSweepCase(rng *rand.Rand, bank []int, n int, value func() float64) *sweepCase {
	c := &sweepCase{bank: bank, tg: make([]float64, n)}
	nb := slices.Max(bank) + 1
	for b := 0; b < nb; b++ {
		p := make([]float64, n)
		for j := range p {
			p[j] = value()
		}
		c.planes = append(c.planes, p)
	}
	for j := range c.tg {
		c.tg[j] = float64(rng.Intn(2))
		if rng.Intn(16) == 0 {
			c.tg[j] = value()
		}
	}
	for range bank {
		r := make([]float64, n)
		for j := range r {
			r[j] = rng.Float64()
			if rng.Intn(4) == 0 {
				r[j] = value()
			}
		}
		c.r = append(c.r, r)
		c.scale = append(c.scale, []float64{200, 204, 196, -3.5, 1e-300}[rng.Intn(5)])
		c.sum0 = append(c.sum0, []float64{0, 0, 1.5, math.NaN()}[rng.Intn(4)])
	}
	return c
}

// sweepBanks are corner-to-bank patterns: one corner, nominal and outer
// sharing a bank, the three process corners, and seven corners that
// span three kernel groups with banks shared across groups.
var sweepBanks = [][]int{{0}, {0, 0}, {0, 1}, {0, 0, 1}, {1, 0, 0, 1}, {0, 1, 0, 1, 2, 0, 2}}

// TestPixelKernelsMatchGo holds the AVX2 forms of the SOCS reduce, the
// adjoint product and the resist sweep's cost and sensitivity pass to
// their Go loops bit for bit: special values in
// every lane, every length residue mod 4, stale destinations, and dense
// random sweeps.
func TestPixelKernelsMatchGo(t *testing.T) {
	skipWithoutKernels(t)
	rng := rand.New(rand.NewSource(32))
	value := func() float64 { return kerneltest.Value(rng) }
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 64, 1 << 16} {
		d, src := make([]float64, n), make([]float64, n)
		f := make([]complex128, n)
		for i := range d {
			d[i], src[i], f[i] = value(), value(), complex(value(), value())
		}
		for _, w := range []float64{0.37, 1, -2.5, 0, math.Inf(1), math.Float64frombits(0x7ff8000000000bad)} {
			checkReduce(t, d, f, w)
		}
		checkAdjoint(t, f, d)
		for _, bank := range sweepBanks {
			checkCostSens(t, newSweepCase(rng, bank, n, value))
		}
	}
	// Each special against each special in every lane position.
	var d, src []float64
	var f []complex128
	for _, a := range kerneltest.Specials {
		for _, b := range kerneltest.Specials {
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < 4; j++ {
					x, y := value(), value()
					if j == lane {
						x, y = a, b
					}
					d, src, f = append(d, x), append(src, y), append(f, complex(x, y))
				}
			}
		}
	}
	checkReduce(t, d, f, 0.37)
	checkReduce(t, src, f, math.NaN())
	checkAdjoint(t, f, d)
	checkAdjoint(t, f, src)
	for _, bank := range sweepBanks {
		c := newSweepCase(rng, bank, len(d), value)
		for i := range c.r {
			copy(c.r[i], [][]float64{d, src}[i%2])
		}
		copy(c.tg, src)
		checkCostSens(t, c)
	}
}

// FuzzReduceKernelMatchesGo: each 3 data bytes make one pixel's stale
// sum and field; w makes the weight.
func FuzzReduceKernelMatchesGo(f *testing.F) {
	f.Add(byte(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(byte(210), []byte("special lanes between ordinary ones"))
	f.Add(byte(200), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213, 214})
	f.Fuzz(func(t *testing.T, w byte, data []byte) {
		skipWithoutKernels(t)
		n := len(data) / 3
		d, e := make([]float64, n), make([]complex128, n)
		for i := range d {
			d[i], e[i] = kerneltest.ByteValue(data[3*i]), complex(kerneltest.ByteValue(data[3*i+1]), kerneltest.ByteValue(data[3*i+2]))
		}
		checkReduce(t, d, e, kerneltest.ByteValue(w))
	})
}

// FuzzAdjointKernelMatchesGo: each 3 data bytes make one pixel's W and
// field.
func FuzzAdjointKernelMatchesGo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte("special lanes between ordinary ones"))
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213, 214})
	f.Fuzz(func(t *testing.T, data []byte) {
		skipWithoutKernels(t)
		n := len(data) / 3
		w, e := make([]float64, n), make([]complex128, n)
		for i := range w {
			w[i], e[i] = kerneltest.ByteValue(data[3*i]), complex(kerneltest.ByteValue(data[3*i+1]), kerneltest.ByteValue(data[3*i+2]))
		}
		checkAdjoint(t, e, w)
	})
}

// FuzzCostSensKernelMatchesGo: which picks the corner banks and n the
// chunk length (below 64); the data, cycled, makes the case's values a
// byte pair each, the first of each pair choosing a σ-like value or a
// kerneltest.ByteValue of the second.
func FuzzCostSensKernelMatchesGo(f *testing.F) {
	f.Add(byte(3), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(byte(5), uint8(13), []byte("special lanes between ordinary ones"))
	f.Add(byte(1), uint8(4), []byte{255, 200, 255, 201, 255, 202, 255, 203, 255, 204})
	f.Fuzz(func(t *testing.T, which byte, n uint8, data []byte) {
		skipWithoutKernels(t)
		if len(data) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		k := 0
		value := func() float64 {
			a, b := data[k%len(data)], data[(k+1)%len(data)]
			k += 2
			if a < 128 {
				return float64(b) / 255
			}
			return kerneltest.ByteValue(b)
		}
		checkCostSens(t, newSweepCase(rng, sweepBanks[int(which)%len(sweepBanks)], int(n%64), value))
	})
}

// checkSet compares setInto with setGo on copies of a stale dst.
func checkSet(t *testing.T, dst, src []float64) {
	t.Helper()
	want, got := slices.Clone(dst), slices.Clone(dst)
	setGo(want, src)
	setInto(got, src)
	for i := range want {
		if !kerneltest.SameBits(got[i], want[i]) {
			t.Fatalf("len %d element %d (0 + %v): kernel %#x, Go loop %#x", len(dst), i, src[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkScaleBins compares scaleBins with scaleBinsGo on copies of a
// stale dst.
func checkScaleBins(t *testing.T, dst, src []complex128, c complex128) {
	t.Helper()
	want, got := slices.Clone(dst), slices.Clone(dst)
	scaleBinsGo(want, src, c)
	scaleBins(got, src, c)
	for i := range want {
		if !kerneltest.SameBitsC(got[i], want[i]) {
			t.Fatalf("len %d c=%v element %d (%v): kernel %v, Go loop %v", len(dst), c, i, src[i], got[i], want[i])
		}
	}
}

// checkHermitianPairs compares hermitianPairs with hermitianPairsGo on
// copies of a and b, which it lays out in one slice, b at an offset
// past a (so the pairs are disjoint) or, with self, a single bin paired
// with itself.
func checkHermitianPairs(t *testing.T, a, b []complex128, self bool) {
	t.Helper()
	run := func(pairs func(a, b []complex128)) []complex128 {
		buf := append(slices.Clone(a), b...)
		if self {
			pairs(buf[:1], buf[:1])
		} else {
			pairs(buf[:len(a)], buf[len(a):])
		}
		return buf
	}
	want, got := run(hermitianPairsGo), run(hermitianPairs)
	for i := range want {
		if !kerneltest.SameBitsC(got[i], want[i]) {
			t.Fatalf("len %d self=%v bin %d: kernel %v (%#x %#x), Go loop %v (%#x %#x)", len(a), self, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// TestBandKernelsMatchGo holds the AVX2 forms of the gradient set, the
// band copies' complex rescale and the Hermitian pairing to their Go
// loops bit for bit: special values in every lane and in both parts of
// a complex, every length residue mod 4, stale destinations, and long
// random runs.
func TestBandKernelsMatchGo(t *testing.T) {
	skipWithoutKernels(t)
	rng := rand.New(rand.NewSource(35))
	value := func() float64 { return kerneltest.Value(rng) }
	cvalue := func() complex128 { return kerneltest.Complex(rng) }
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 57, 1 << 12} {
		d, src := make([]float64, n), make([]float64, n)
		a, b, cs := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		for i := range d {
			d[i], src[i] = value(), value()
			a[i], b[i], cs[i] = cvalue(), cvalue(), cvalue()
		}
		checkSet(t, d, src)
		for _, c := range []complex128{complex(0.0625, 0), complex(1, 0), complex(-3, 0.5), cvalue(), complex(math.NaN(), 0), complex(0, math.Inf(1))} {
			checkScaleBins(t, b, cs, c)
		}
		checkHermitianPairs(t, a, b, false)
	}
	// Each special against each special in every lane position: the
	// real and imaginary parts of one complex, and the two complexes
	// of a pair.
	var d, src []float64
	var a, b []complex128
	for _, x := range kerneltest.Specials {
		for _, y := range kerneltest.Specials {
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < 4; j++ {
					p, q := value(), value()
					if j == lane {
						p, q = x, y
					}
					d, src = append(d, p), append(src, q)
					a, b = append(a, complex(p, q)), append(b, complex(q, p))
				}
			}
		}
	}
	checkSet(t, d, src)
	checkSet(t, src, d)
	for _, c := range []complex128{complex(0.25, 0), complex(math.NaN(), 0), complex(math.Inf(-1), math.Float64frombits(0x7ff4000000000001))} {
		checkScaleBins(t, a, b, c)
	}
	checkHermitianPairs(t, a, b, false)
	checkHermitianPairs(t, a, slices.Clone(a), false)
	for _, x := range a[:64] {
		checkHermitianPairs(t, []complex128{x}, nil, true)
	}
}

// FuzzSetKernelMatchesGo: each data byte makes one pixel's gradient
// value; the stale destination is its mirror.
func FuzzSetKernelMatchesGo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, data []byte) {
		skipWithoutKernels(t)
		dst, src := make([]float64, len(data)), make([]float64, len(data))
		for i, b := range data {
			dst[i], src[i] = kerneltest.ByteValue(data[len(data)-1-i]), kerneltest.ByteValue(b)
		}
		checkSet(t, dst, src)
	})
}

// FuzzScaleBinsKernelMatchesGo: c makes the scale's two parts, each 2
// data bytes one bin.
func FuzzScaleBinsKernelMatchesGo(f *testing.F) {
	f.Add(byte(1), byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(200), byte(206), []byte("special lanes between ordinary ones"))
	f.Fuzz(func(t *testing.T, cr, ci byte, data []byte) {
		skipWithoutKernels(t)
		n := len(data) / 2
		dst, src := make([]complex128, n), make([]complex128, n)
		for i := range src {
			src[i] = complex(kerneltest.ByteValue(data[2*i]), kerneltest.ByteValue(data[2*i+1]))
			dst[i] = complex(kerneltest.ByteValue(data[2*i+1]), 7)
		}
		checkScaleBins(t, dst, src, complex(kerneltest.ByteValue(cr), kerneltest.ByteValue(ci)))
	})
}

// FuzzHermitianKernelMatchesGo: each 4 data bytes make one bin of a and
// one of b; self pairs the first bin with itself.
func FuzzHermitianKernelMatchesGo(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(true, []byte{200, 201, 202, 203})
	f.Add(false, []byte("special lanes between ordinary ones"))
	f.Fuzz(func(t *testing.T, self bool, data []byte) {
		skipWithoutKernels(t)
		n := len(data) / 4
		a, b := make([]complex128, n), make([]complex128, n)
		for i := range a {
			a[i] = complex(kerneltest.ByteValue(data[4*i]), kerneltest.ByteValue(data[4*i+1]))
			b[i] = complex(kerneltest.ByteValue(data[4*i+2]), kerneltest.ByteValue(data[4*i+3]))
		}
		if self && n == 0 {
			return
		}
		checkHermitianPairs(t, a, b, self)
	})
}

// BenchmarkPixelKernels times each per-pixel loop at 512², as run (the
// kernel where the CPU has it) and as the Go loop alone.
func BenchmarkPixelKernels(b *testing.B) {
	const n = 512 * 512
	rng := rand.New(rand.NewSource(1))
	d, w := make([]float64, n), make([]float64, n)
	e := make([]complex128, n)
	for i := range d {
		// |w| = 1 keeps the repeated adjoint products' magnitudes.
		d[i], w[i], e[i] = rng.Float64(), 1, complex(rng.Float64(), rng.Float64())
	}
	c := newSweepCase(rng, []int{0, 0, 1}, 8*512, rng.Float64)
	cs := []costCorner{{r: c.r[0], w: c.planes[0], scale: 200, first: true},
		{r: c.r[1], w: c.planes[0], scale: 204}, {r: c.r[2], w: c.planes[1], scale: 196, first: true}}
	for _, k := range []struct {
		name     string
		run, ref func()
	}{
		{"reduce", func() { reduce(d, e, 0.3) }, func() { reduceGo(d, e, 0.3) }},
		{"adjoint", func() { adjointProduct(e, w) }, func() { adjointGo(e, w) }},
		{"costSens3/chunk", func() { costSens(cs, c.tg) }, func() { costSensRef(cs, c.tg) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
		b.Run(k.name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.ref()
			}
		})
	}
}

// refHermitianPart and refCopyBandRow are the band loops as one pass
// over every bin, each bin's wrapped index computed on its own: the
// form hermitianPart and copyBandRow had before they were split into
// contiguous runs.
func refHermitianPart(c *grid.CField, band int) {
	n := c.W
	in := func(f int) bool { return 2*band+1 >= n || f <= band || f >= n-band }
	for v := 0; v < n; v++ {
		if !in(v) {
			continue
		}
		row := c.Data[v*n : (v+1)*n]
		mirror := c.Data[((n-v)%n)*n : ((n-v)%n+1)*n]
		for u := range row {
			if !in(u) {
				continue
			}
			mu := (n - u) % n
			if v*n+u > ((n-v)%n)*n+mu {
				continue
			}
			a, b := row[u], mirror[mu]
			h := complex((real(a)+real(b))/2, (imag(a)-imag(b))/2)
			row[u], mirror[mu] = h, complex(real(h), -imag(h))
		}
	}
}

func refCopyBandRow(dst, src *grid.CField, v, band int, scale float64) {
	n, m := dst.W, src.W
	row := dst.Data[((v+n)%n)*n : ((v+n)%n+1)*n]
	clear(row)
	srow := src.Data[((v+m)%m)*m : ((v+m)%m+1)*m]
	for u := -band; u <= band; u++ {
		row[(u+n)%n] = srow[(u+m)%m] * complex(scale, 0)
	}
}

// TestBandLoopsMatchReference holds hermitianPart and copyBandRow, runs,
// kernels and all, to the per-bin reference loops on random spectra with
// special bins, bands up to the widest that fits the grid, and stale
// destinations. The references are bodies of their own, whose code
// generator may order the operands of a two-NaN operation otherwise, so
// there any NaN matches any NaN.
func TestBandLoopsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	field := func(n int) *grid.CField {
		f := grid.NewCField(n, n)
		for i := range f.Data {
			f.Data[i] = kerneltest.Complex(rng)
		}
		return f
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	check := func(what string, got, want *grid.CField) {
		t.Helper()
		for i := range want.Data {
			g, w := got.Data[i], want.Data[i]
			if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
				t.Fatalf("%s: bin %d %v, reference %v", what, i, g, w)
			}
		}
	}
	for _, g := range []struct{ n, band int }{{4, 1}, {8, 1}, {8, 3}, {16, 2}, {16, 7}, {32, 5}, {128, 28}, {128, 56}} {
		c := field(g.n)
		want, got := c.Clone(), c.Clone()
		refHermitianPart(want, g.band)
		hermitianPart(got, g.band)
		check(fmt.Sprintf("hermitianPart n=%d band=%d", g.n, g.band), got, want)
	}
	for _, g := range []struct{ n, m, band int }{{16, 16, 3}, {32, 16, 7}, {64, 16, 5}, {512, 128, 56}} {
		src, stale := field(g.m), field(g.n)
		want, got := stale.Clone(), stale.Clone()
		for v := -g.band; v <= g.band; v++ {
			refCopyBandRow(want, src, v, g.band, 0.0625)
			copyBandRow(got, src, v, g.band, 0.0625)
		}
		check(fmt.Sprintf("copyBandRow n=%d m=%d band=%d", g.n, g.m, g.band), got, want)
	}
}
