package litho

import (
	"flag"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelSpecials are operands the per-pixel kernels must carry exactly:
// NaNs with distinct payloads and signs (a signalling one among them),
// ±Inf, ±0, subnormals and the extremes of the normal range.
var kernelSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff4000000000abc),
	math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 0x1p-1022, -0x1.8p-1030, math.MaxFloat64, -math.MaxFloat64,
	1e300, -1e-300, 1, -1, 0.5,
}

// kernelValue draws one operand: a special, a random value at an
// exponent anywhere in the float64 range, or an ordinary one in [−2, 2].
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return kernelSpecials[rng.Intn(len(kernelSpecials))]
	case 1:
		return math.Ldexp(2*rng.Float64()-1, rng.Intn(2098)-1074)
	default:
		return 4*rng.Float64() - 2
	}
}

// byteValue maps a fuzzed byte to an operand the same way: a special, a
// scaled value or an ordinary one.
func byteValue(b byte) float64 {
	switch {
	case b >= 200:
		return kernelSpecials[int(b-200)%len(kernelSpecials)]
	case b >= 100:
		return math.Ldexp(float64(b)-150, int(b)*20-3000)
	default:
		return float64(b)/25 - 2
	}
}

// raceBuild is set in a race-detector build (kernels_race_test.go).
var raceBuild bool

// nanPinned says whether a NaN result must match the Go loop's bit for
// bit. It must in the default build, whose Go loops the kernels copy. A
// race-detector build and a fuzzing run's coverage-instrumented build
// compile the Go loops with other operand orders for commutative
// operations, so there a two-NaN operation may return the other NaN and
// a NaN needs only a NaN; the plain go test replays the fuzz seeds and
// corpus pinned.
func nanPinned() bool {
	f := flag.Lookup("test.fuzz")
	return !raceBuild && (f == nil || f.Value.String() == "")
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b) && !nanPinned()
}

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
		if !sameBits(got[i], want[i]) {
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
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("len %d element %d (w %#x, e %#x %#x): kernel %#x %#x, Go loop %#x %#x", len(e), i, math.Float64bits(w[i]), math.Float64bits(real(e[i])), math.Float64bits(imag(e[i])), math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])), math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// checkAdd compares addInto with addGo on copies of dst.
func checkAdd(t *testing.T, dst, src []float64) {
	t.Helper()
	want, got := slices.Clone(dst), slices.Clone(dst)
	addGo(want, src)
	addInto(got, src)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("len %d element %d (%v + %v): kernel %v, Go loop %v", len(dst), i, dst[i], src[i], got[i], want[i])
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
		if !sameBits(gotSums[i], wantSums[i]) {
			t.Fatalf("banks %v len %d: corner %d sum %v (%#x), Go loop %v (%#x)", c.bank, len(c.tg), i,
				gotSums[i], math.Float64bits(gotSums[i]), wantSums[i], math.Float64bits(wantSums[i]))
		}
	}
	for b := range wantPlanes {
		for j := range wantPlanes[b] {
			if !sameBits(gotPlanes[b][j], wantPlanes[b][j]) {
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
// adjoint product, the gradient apply and the resist sweep's cost and
// sensitivity pass to their Go loops bit for bit: special values in
// every lane, every length residue mod 4, stale destinations, and dense
// random sweeps.
func TestPixelKernelsMatchGo(t *testing.T) {
	skipWithoutKernels(t)
	rng := rand.New(rand.NewSource(32))
	value := func() float64 { return kernelValue(rng) }
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
		checkAdd(t, d, src)
		for _, bank := range sweepBanks {
			checkCostSens(t, newSweepCase(rng, bank, n, value))
		}
	}
	// Each special against each special in every lane position.
	var d, src []float64
	var f []complex128
	for _, a := range kernelSpecials {
		for _, b := range kernelSpecials {
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
	checkAdd(t, d, src)
	checkAdd(t, src, d)
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
			d[i], e[i] = byteValue(data[3*i]), complex(byteValue(data[3*i+1]), byteValue(data[3*i+2]))
		}
		checkReduce(t, d, e, byteValue(w))
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
			w[i], e[i] = byteValue(data[3*i]), complex(byteValue(data[3*i+1]), byteValue(data[3*i+2]))
		}
		checkAdjoint(t, e, w)
	})
}

// FuzzAddKernelMatchesGo: each 2 data bytes make one pixel's gradient
// and increment.
func FuzzAddKernelMatchesGo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, data []byte) {
		skipWithoutKernels(t)
		n := len(data) / 2
		dst, src := make([]float64, n), make([]float64, n)
		for i := range dst {
			dst[i], src[i] = byteValue(data[2*i]), byteValue(data[2*i+1])
		}
		checkAdd(t, dst, src)
	})
}

// FuzzCostSensKernelMatchesGo: which picks the corner banks and n the
// chunk length (below 64); the data, cycled, makes the case's values a
// byte pair each, the first of each pair choosing a σ-like value or a
// byteValue of the second.
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
			return byteValue(b)
		}
		checkCostSens(t, newSweepCase(rng, sweepBanks[int(which)%len(sweepBanks)], int(n%64), value))
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
		{"add", func() { addInto(d, w) }, func() { addGo(d, w) }},
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
