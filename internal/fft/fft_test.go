package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalisation, so Inverse∘Forward is the identity: the 1-D inverse
// the batch passes and the 2-D reference are checked against.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, p.twinv)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff vs naive DFT = %g", n, d)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	for _, n := range []int{2, 16, 128, 1024} {
		p := NewPlan(n)
		x := randComplex(n, 42)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(x, y); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum at %d = %v, want 1", k, v)
		}
	}
}

func TestParseval(t *testing.T) {
	const n = 256
	x := randComplex(n, 7)
	var spatial float64
	for _, v := range x {
		spatial += real(v)*real(v) + imag(v)*imag(v)
	}
	NewPlan(n).Forward(x)
	var freq float64
	for _, v := range x {
		freq += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freq/float64(n)-spatial) > 1e-8*spatial {
		t.Fatalf("Parseval violated: spatial %g vs freq/n %g", spatial, freq/float64(n))
	}
}

func TestLinearityProperty(t *testing.T) {
	const n = 32
	p := NewPlan(n)
	prop := func(seedA, seedB int64, sRe, sIm float64) bool {
		if math.IsNaN(sRe) || math.IsInf(sRe, 0) {
			sRe = 1
		}
		if math.IsNaN(sIm) || math.IsInf(sIm, 0) {
			sIm = 1
		}
		s := complex(math.Mod(sRe, 100), math.Mod(sIm, 100))
		a := randComplex(n, seedA)
		b := randComplex(n, seedB)
		// FFT(a + s·b)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + s*b[i]
		}
		p.Forward(sum)
		// FFT(a) + s·FFT(b)
		fa := append([]complex128(nil), a...)
		fb := append([]complex128(nil), b...)
		p.Forward(fa)
		p.Forward(fb)
		for i := range fa {
			fa[i] += s * fb[i]
		}
		return maxDiff(sum, fa) < 1e-8*(1+cmplx.Abs(s))*float64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftTheorem(t *testing.T) {
	const n = 64
	p := NewPlan(n)
	x := randComplex(n, 3)
	// y[i] = x[(i-1) mod n]  =>  Y[k] = X[k]·e^{-2πik/n}
	y := make([]complex128, n)
	for i := range y {
		y[i] = x[(i-1+n)%n]
	}
	fx := append([]complex128(nil), x...)
	p.Forward(fx)
	p.Forward(y)
	for k := range y {
		ph := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		if cmplx.Abs(y[k]-fx[k]*ph) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d", k)
		}
	}
}

func TestPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func TestForwardRejectsWrongLength(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestCachedPlanReuse(t *testing.T) {
	a := CachedPlan(64)
	b := CachedPlan(64)
	if a != b {
		t.Fatal("CachedPlan must return the same plan for the same length")
	}
	if a.N() != 64 {
		t.Fatalf("plan length %d", a.N())
	}
}

// TestPlanCacheEvents: on a fresh cache the first lookup of a length
// misses and the second hits, each traced to the runtime sink and
// counted in the fft.plan_cache counters.
func TestPlanCacheEvents(t *testing.T) {
	sink := &obs.CollectorSink{}
	obs.SetRuntime(sink)
	defer obs.SetRuntime(nil)
	misses, hits := mPlanMisses.Value(), mPlanHits.Value()

	var c planCache
	a := c.get(32)
	b := c.get(32)
	if a != b || a.N() != 32 {
		t.Fatalf("cache returned plans %p (n=%d) and %p, want one length-32 plan", a, a.N(), b)
	}
	var got []bool
	for _, e := range sink.Events() {
		if e.Type != obs.EventPlanCache || e.N != 32 {
			t.Fatalf("unexpected event %+v", e)
		}
		got = append(got, e.Hit)
	}
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("plan-cache events hit=%v, want a miss then a hit", got)
	}
	if d := mPlanMisses.Value() - misses; d != 1 {
		t.Errorf("fft.plan_cache.misses moved by %d, want 1", d)
	}
	if d := mPlanHits.Value() - hits; d != 1 {
		t.Errorf("fft.plan_cache.hits moved by %d, want 1", d)
	}
}

// referenceTransform is the textbook radix-2 loop the stage-fused
// kernel replaced: bit reversal by a permutation walk, then one memory
// sweep per stage reading the length-n twiddle table at stride n/size.
// Plan.Forward/Inverse must reproduce it bit for bit.
func referenceTransform(x []complex128, inverse bool) {
	n := len(x)
	shift := 0
	for 1<<shift < n {
		shift++
	}
	for i := 0; i < n; i++ {
		if j := int(reverseBits(uint32(i), shift)); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2+1)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		if inverse {
			s = -s
		}
		tw[k] = complex(c, s)
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			k := 0
			for j := base; j < base+half; j++ {
				w := tw[k]
				t := w * x[j+half]
				u := x[j]
				x[j] = u + t
				x[j+half] = u - t
				k += step
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// genericPlan returns a copy of p that runs the Go loops at every
// length, so a host whose plans select the AVX2 kernel still tests them.
func genericPlan(p *Plan) *Plan {
	g := *p
	g.k = &goKernel
	return &g
}

// transformed returns p.Forward or p.Inverse of a copy of x.
func transformed(p *Plan, x []complex128, inverse bool) []complex128 {
	y := append([]complex128(nil), x...)
	if inverse {
		p.Inverse(y)
	} else {
		p.Forward(y)
	}
	return y
}

// checkMatchesReference runs x through Forward and Inverse, with the
// selected kernel and with the Go loops, and through referenceTransform,
// and reports any element that differs under ==, the repository's
// bit-identity convention (it ignores only the sign of an exact zero).
func checkMatchesReference(t *testing.T, p *Plan, x []complex128, what string) {
	t.Helper()
	for _, q := range []*Plan{p, genericPlan(p)} {
		for _, inverse := range []bool{false, true} {
			got := transformed(q, x, inverse)
			want := append([]complex128(nil), x...)
			referenceTransform(want, inverse)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d %s inverse=%v generic=%v: element %d = %v, reference %v",
						p.N(), what, inverse, q.k == &goKernel, i, got[i], want[i])
				}
			}
		}
	}
}

// sameBits reports whether a and b have identical bits, any NaN
// matching any NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestKernelsAgreeOnEdgeInputs holds the selected kernel to the Go loops
// bit for bit, exact-zero signs included, on inputs built from signed
// zeros, subnormals, values near the overflow and underflow limits,
// infinities and NaN, which the == rule against the reference cannot
// see (it equates ±0 and fails every NaN).
func TestKernelsAgreeOnEdgeInputs(t *testing.T) {
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300,
		1e-300, -1e-300, math.Inf(1), math.Inf(-1), math.NaN(), 1, -0.75}
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 4096; n <<= 1 {
		p := NewPlan(n)
		mixed, zeros, finite := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		for i := range mixed {
			mixed[i] = complex(edge[rng.Intn(len(edge))], edge[rng.Intn(len(edge))])
			zeros[i] = complex(math.Copysign(0, -1), edge[rng.Intn(2)])
			finite[i] = complex(edge[rng.Intn(8)], edge[rng.Intn(8)])
		}
		for what, x := range map[string][]complex128{"mixed": mixed, "signed zeros": zeros, "finite edge": finite} {
			for _, inverse := range []bool{false, true} {
				got, want := transformed(p, x, inverse), transformed(genericPlan(p), x, inverse)
				for i := range got {
					if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
						t.Fatalf("n=%d %s inverse=%v: element %d = %v, Go loops %v", n, what, inverse, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 1; n <= 4096; n <<= 1 {
		p := NewPlan(n)
		checkMatchesReference(t, p, randComplex(n, int64(n)), "dense")
		checkMatchesReference(t, p, make([]complex128, n), "zero")
		// Band-sparse, as the banded passes feed: only |v| ≤ R nonzero
		// (v the signed frequency index).
		for _, r := range []int{0, 1, 3, n / 8, n/2 - 1} {
			if r < 0 || 2*r >= n {
				continue
			}
			x := make([]complex128, n)
			for v := -r; v <= r; v++ {
				x[(v+n)%n] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			checkMatchesReference(t, p, x, fmt.Sprintf("band %d", r))
		}
	}
}

// FuzzPlanMatchesReference checks the kernel against the reference loop
// on arbitrary inputs: logN picks the length (1 … 4096) and each pair of
// data bytes one finite element, the rest staying zero when data runs
// out early.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2})
	f.Add(uint8(3), []byte{0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 1})
	f.Add(uint8(9), []byte("band-sparse spectrum rows"))
	f.Add(uint8(12), []byte{128, 127, 3, 250})
	f.Fuzz(func(t *testing.T, logN uint8, data []byte) {
		n := 1 << (logN % 13)
		x := make([]complex128, n)
		for i := 0; i+1 < len(data) && i/2 < n; i += 2 {
			x[i/2] = complex(float64(int8(data[i]))/7, float64(int8(data[i+1]))/3)
		}
		checkMatchesReference(t, NewPlan(n), x, "fuzz")
	})
}

// TestKernelGauge: fft.kernel_avx2 in the default registry names the
// kernel plans of length ≥ 8 run, and shorter plans run the Go loops.
func TestKernelGauge(t *testing.T) {
	want := 0.0
	if NewPlan(8).k != &goKernel {
		want = 1
	}
	if got := obs.Default.Snapshot()["fft.kernel_avx2"]; got != want {
		t.Fatalf("fft.kernel_avx2 = %v, want %v", got, want)
	}
	if NewPlan(4).k != &goKernel {
		t.Fatal("a length-4 plan must run the Go loops")
	}
}

func TestPlanZeroAllocWarm(t *testing.T) {
	p := NewPlan(512)
	x := randComplex(512, 1)
	if a := testing.AllocsPerRun(20, func() { p.Forward(x); p.Inverse(x) }); a != 0 {
		t.Fatalf("warm Forward+Inverse allocated %v times per run", a)
	}
}

// ---------- 2-D ----------

// naiveDFT2D is the O(n⁴) reference 2-D transform.
func naiveDFT2D(c *grid.CField) *grid.CField {
	out := grid.NewCField(c.W, c.H)
	for ky := 0; ky < c.H; ky++ {
		for kx := 0; kx < c.W; kx++ {
			var s complex128
			for y := 0; y < c.H; y++ {
				for x := 0; x < c.W; x++ {
					ang := -2 * math.Pi * (float64(kx*x)/float64(c.W) + float64(ky*y)/float64(c.H))
					s += c.At(x, y) * cmplx.Exp(complex(0, ang))
				}
			}
			out.Set(kx, ky, s)
		}
	}
	return out
}

func randCField(w, h int, seed int64) *grid.CField {
	rng := rand.New(rand.NewSource(seed))
	c := grid.NewCField(w, h)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func TestForward2DMatchesNaive(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {4, 8}, {16, 16}} {
		w, h := dims[0], dims[1]
		c := randCField(w, h, int64(w*100+h))
		want := naiveDFT2D(c)
		got := c.Clone()
		NewBatchPlan2D(w, h, engine.CPU()).BatchForward([]*grid.CField{got})
		if !got.Equal(want, 1e-9*float64(w*h)) {
			t.Errorf("%dx%d: 2-D FFT disagrees with naive DFT", w, h)
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {64, 64}} {
		w, h := dims[0], dims[1]
		p := NewBatchPlan2D(w, h, engine.GPU())
		c := randCField(w, h, 5)
		orig := c.Clone()
		p.BatchForward([]*grid.CField{c})
		p.BatchInverse([]*grid.CField{c})
		if !c.Equal(orig, 1e-10*float64(w*h)) {
			t.Errorf("%dx%d round trip failed", w, h)
		}
	}
}

func TestEnginesAgreeOn2D(t *testing.T) {
	const w, h = 64, 32
	src := randCField(w, h, 11)
	im := grid.NewField(w, h)
	for i, v := range src.Data {
		im.Data[i] = imag(v)
	}
	var first []*grid.CField
	for _, eng := range []*engine.Engine{engine.CPU(), engine.GPU(), engine.New("gpu5", 5)} {
		p := NewBatchPlan2D(w, h, eng)
		fwd, inv, fr := src.Clone(), src.Clone(), grid.NewCField(w, h)
		p.BatchForward([]*grid.CField{fwd})
		p.BatchInverse([]*grid.CField{inv})
		p.ForwardReal(fr, im, -1)
		got := []*grid.CField{fwd, inv, fr}
		if first == nil {
			first = got
			continue
		}
		for i, c := range got {
			if !c.Equal(first[i], 0) {
				t.Fatalf("%s: pass %d differs from the CPU engine; engines must produce bit-identical transforms", eng.Name(), i)
			}
		}
	}
}

// directCircularConv computes (a ⊛ k)(x,y) = Σ a(u,v)·k(x-u mod W, y-v mod H).
func directCircularConv(a, k *grid.CField) *grid.CField {
	out := grid.NewCField(a.W, a.H)
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			var s complex128
			for v := 0; v < a.H; v++ {
				for u := 0; u < a.W; u++ {
					s += a.At(u, v) * k.At(((x-u)%a.W+a.W)%a.W, ((y-v)%a.H+a.H)%a.H)
				}
			}
			out.Set(x, y, s)
		}
	}
	return out
}

func TestConvolutionTheorem(t *testing.T) {
	const w, h = 8, 8
	a := randCField(w, h, 21)
	k := randCField(w, h, 22)
	want := directCircularConv(a, k)

	p := NewBatchPlan2D(w, h, engine.CPU())
	aSpec, kSpec := a.Clone(), k.Clone()
	p.BatchForward([]*grid.CField{aSpec, kSpec})
	got := grid.NewCField(w, h)
	got.Mul(aSpec, kSpec)
	p.BatchInverse([]*grid.CField{got})

	if !got.Equal(want, 1e-9*float64(w*h)) {
		t.Fatal("FFT convolution disagrees with direct circular convolution")
	}
}

func TestSpectrumOfRealField(t *testing.T) {
	const n = 16
	f := grid.NewField(n, n)
	f.Set(3, 5, 1)
	spec := grid.NewCField(n, n)
	NewBatchPlan2D(n, n, engine.CPU()).ForwardReal(spec, f, -1)
	// A real field's spectrum is Hermitian: X(-k) = conj(X(k)).
	for ky := 0; ky < n; ky++ {
		for kx := 0; kx < n; kx++ {
			a := spec.At(kx, ky)
			b := spec.At((n-kx)%n, (n-ky)%n)
			if cmplx.Abs(a-cmplx.Conj(b)) > 1e-9 {
				t.Fatalf("Hermitian symmetry violated at (%d,%d)", kx, ky)
			}
		}
	}
}

func TestPlan2DRejectsMismatchedField(t *testing.T) {
	p := NewBatchPlan2D(8, 8, engine.CPU())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched field did not panic")
		}
	}()
	p.BatchForward([]*grid.CField{grid.NewCField(4, 8)})
}

func TestPlan2DRejectsBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two dims did not panic")
		}
	}()
	NewBatchPlan2D(6, 8, engine.CPU())
}

func BenchmarkFFT1D1024(b *testing.B) {
	p := NewPlan(1024)
	x := randComplex(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT2D512Serial(b *testing.B)   { benchFFT2D(b, 512, engine.CPU()) }
func BenchmarkFFT2D512Parallel(b *testing.B) { benchFFT2D(b, 512, engine.GPU()) }

func benchFFT2D(b *testing.B, n int, eng *engine.Engine) {
	p := NewBatchPlan2D(n, n, eng)
	c := []*grid.CField{randCField(n, n, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchForward(c)
	}
}
