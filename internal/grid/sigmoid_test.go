package grid

import (
	"math"
	"math/rand"
	"testing"

	"lsopc/internal/obs"
)

// refSigmoid is the textbook σ through math.Exp.
func refSigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// sigmoidOf runs SigmoidInto on one value with s = 1, t = 0, so the
// kernel's argument is exactly −x.
func sigmoidOf(x float64) float64 {
	d := []float64{x}
	SigmoidInto(d, d, 1, 0)
	return d[0]
}

// sigmoidTol is the agreement bound with the math.Exp form: 1e-15
// relative, plus one subnormal step for the results below the smallest
// normal float64 (x near −709.78, where 1/(1+e) is subnormal).
func sigmoidClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-15*math.Abs(want)+math.SmallestNonzeroFloat64
}

func TestSigmoidKernelMatchesExp(t *testing.T) {
	ln2N := math.Ln2 / expN
	cases := []float64{
		0, 1e-300, -1e-300, 1e-17, 0.5, -0.5, 1, -1, 2.5, -3.75, 10, -10,
		36, -36, 37.5, -37.5, 40, -40, 100, -100, 700, -700,
		707.9, -707.9, 708, -708, 708.1, -708.1,
		709.78, -709.78, 709.79, -709.79, 744, -744, 745.2, -745.2, 1e4, -1e4,
	}
	// Table boundaries: k·ln2/N lies where the reduction switches
	// table entries, and half-way points where the rounding of k flips.
	for _, k := range []float64{1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 1000, 12345} {
		for _, x := range []float64{k * ln2N, (k + 0.5) * ln2N} {
			for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
				cases = append(cases, v, -v)
			}
		}
	}
	for _, x := range cases {
		if got, want := sigmoidOf(x), refSigmoid(x); !sigmoidClose(got, want) {
			t.Errorf("σ(%v) = %v, math.Exp form %v (rel %.3g)", x, got, want, math.Abs(got-want)/want)
		}
	}
	// A dense sweep over the range the resist model reaches.
	for x := -60.0; x <= 60; x += 0.0137 {
		if got, want := sigmoidOf(x), refSigmoid(x); !sigmoidClose(got, want) {
			t.Fatalf("σ(%v) = %v, math.Exp form %v", x, got, want)
		}
	}
}

func TestSigmoidKernelSpecialValues(t *testing.T) {
	if got := sigmoidOf(0); got != 0.5 {
		t.Fatalf("σ(0) = %v, want exactly 0.5", got)
	}
	if got := sigmoidOf(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("σ(NaN) = %v, want NaN", got)
	}
	for _, c := range []struct{ x, want float64 }{
		{math.Inf(1), 1}, {math.Inf(-1), 0},
		{746, 1}, {-746, 0}, {1e300, 1}, {-1e300, 0},
	} {
		if got := sigmoidOf(c.x); got != c.want {
			t.Errorf("σ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestSigmoidIntoMatchesField: the slice kernel with s, t is what
// Field.Sigmoid computes, element for element, also in place and with
// out-of-range entries mixed in.
func TestSigmoidIntoMatchesField(t *testing.T) {
	a := FieldFromData(6, 1, []float64{0.1, 0.225, math.NaN(), 0.9, -40, 40})
	r := NewField(6, 1)
	r.Sigmoid(a, 50, 0.225)
	inPlace := a.Clone()
	SigmoidInto(inPlace.Data, inPlace.Data, 50, 0.225)
	for i, v := range a.Data {
		want := 1 / (1 + math.Exp(-50*(v-0.225)))
		if got := r.Data[i]; !(sigmoidClose(got, want) || math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("element %d: %v, want %v", i, got, want)
		}
		if got := inPlace.Data[i]; math.Float64bits(got) != math.Float64bits(r.Data[i]) {
			t.Errorf("element %d: in place %v, Field.Sigmoid %v", i, got, r.Data[i])
		}
	}
}

// TestSigmoidDoseMatchesScaledCopy: the dose folded into the sigmoid
// gives the bits of the sigmoid over a copy scaled by the dose, which is
// what the resist sweep wrote before the fold, and at dose 1 the bits of
// SigmoidInto, signalling NaNs, −0 and subnormals included.
func TestSigmoidDoseMatchesScaledCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := []float64{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 0.225, 1e300}
	for len(a) < 1027 {
		a = append(a, 1.2*rng.Float64()-0.1)
	}
	for _, dose := range []float64{1, 1.02, 0.98, 1e-300, -1} {
		scaled := make([]float64, len(a))
		for i, v := range a {
			scaled[i] = dose * v
		}
		want := make([]float64, len(a))
		SigmoidInto(want, scaled, 50, 0.225)
		got := make([]float64, len(a))
		SigmoidDoseInto(got, a, dose, 50, 0.225)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("dose %v, element %d (input %v): folded %v, over the scaled copy %v", dose, i, a[i], got[i], want[i])
			}
		}
	}
}

func FuzzSigmoidMatchesExp(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 0.5 * math.Ln2 / expN, 37, -37, 708, -708, 709.8, -709.8, 800} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		got, want := sigmoidOf(x), refSigmoid(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("σ(%v) = %v, want NaN", x, got)
			}
			return
		}
		if !sigmoidClose(got, want) {
			t.Fatalf("σ(%v) = %v, math.Exp form %v", x, got, want)
		}
	})
}

// kernelCases are the dose, steepness and threshold triples the kernel
// run: s = 1, t = 0 makes z = −v exactly, so the ±expFast boundaries
// are hit exactly; the others are the resist model's.
var kernelCases = [...]struct{ dose, s, t float64 }{
	{1, 1, 0}, {1, 25, 0.225}, {1, 50, 0.225}, {1, 1000, 0.225}, {1.02, 50, 0.225}, {0.98, 25, 0.225},
}

// kernelSpecials are exponents z the kernel must hand on unchanged or
// get exactly right: out of range, NaN, the range's edges (also the
// neighbours of ±expFast), exponents whose σ is below the smallest
// normal float64 (708.4 < z < 709.79, finished by math.Exp), zeros and
// tiny z.
var kernelSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300,
	expFast, -expFast, math.Nextafter(expFast, 0), math.Nextafter(-expFast, 0),
	math.Nextafter(expFast, 1000), math.Nextafter(-expFast, -1000),
	709, 709.5, 709.8, -709.8, 744, -744, 0, math.Copysign(0, -1), 1e-300, -1e-300,
	0.5 * math.Ln2 / expN, -0.5 * math.Ln2 / expN,
}

// kernelInput maps an exponent z to the input value with about that
// under s and t (exactly z when s = 1, t = 0).
func kernelInput(z, dose, s, t float64) float64 { return (t - z/s) / dose }

// checkKernelMatchesGo runs a through the AVX2 kernel (with the Go loop
// on the tail) and through the Go loop alone and requires the same bits:
// the raw outputs with their markers, the slow flags, and the finished
// σ, which SigmoidDoseInto must also give, into a fresh slice or into a
// itself when alias is set.
func checkKernelMatchesGo(t *testing.T, a []float64, dose, s, th float64, alias bool) {
	t.Helper()
	want := make([]float64, len(a))
	wantSlow := sigmoidGo(want, a, dose, s, th)

	got := make([]float64, len(a))
	src := a
	if alias {
		copy(got, a)
		src = got
	}
	n, slow := sigmoidVec(got, src, dose, s, th)
	if n != len(a)&^3 {
		t.Fatalf("len %d: kernel covered %d elements", len(a), n)
	}
	if sigmoidGo(got[n:], src[n:], dose, s, th) {
		slow = true
	}
	if slow != wantSlow {
		t.Fatalf("dose=%v s=%v t=%v: slow flag %v, Go loop %v", dose, s, th, slow, wantSlow)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dose=%v s=%v t=%v alias=%v: element %d of %d (input %v): kernel %v, Go loop %v",
				dose, s, th, alias, i, len(a), a[i], got[i], want[i])
		}
	}

	if wantSlow {
		sigmoidExp(want)
	}
	out := make([]float64, len(a))
	SigmoidDoseInto(out, a, dose, s, th)
	inPlace := append([]float64(nil), a...)
	SigmoidDoseInto(inPlace, inPlace, dose, s, th)
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dose=%v s=%v t=%v: σ element %d of %d (input %v): SigmoidDoseInto %v, in place %v, Go loop %v",
				dose, s, th, i, len(a), a[i], out[i], inPlace[i], want[i])
		}
	}
}

// TestSigmoidKernelMatchesGo holds the AVX2 kernel to the Go loop bit
// for bit: special lanes mixed with in-range ones in the same vector,
// every length residue mod 4, dst aliasing a, and a dense random sweep
// over the whole table range.
func TestSigmoidKernelMatchesGo(t *testing.T) {
	if !sigmoidAVX2OK {
		t.Skip("the CPU lacks AVX2 or FMA; SigmoidInto runs the Go loop alone")
	}
	rng := rand.New(rand.NewSource(24))
	subnormal := false
	for _, c := range kernelCases {
		// Every special value sits in every lane position, between
		// in-range neighbours.
		var mixed []float64
		for _, z := range kernelSpecials {
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < 4; j++ {
					v := kernelInput(1400*rng.Float64()-700, c.dose, c.s, c.t)
					if j == lane {
						v = kernelInput(z, c.dose, c.s, c.t)
					}
					mixed = append(mixed, v)
				}
			}
		}
		for n := 0; n <= 13; n++ {
			for _, alias := range []bool{false, true} {
				checkKernelMatchesGo(t, mixed[:n], c.dose, c.s, c.t, alias)
				checkKernelMatchesGo(t, mixed[len(mixed)-n:], c.dose, c.s, c.t, alias)
			}
		}
		checkKernelMatchesGo(t, mixed, c.dose, c.s, c.t, false)
		checkKernelMatchesGo(t, mixed, c.dose, c.s, c.t, true)

		dense := make([]float64, 1<<18+3)
		for i := range dense {
			dense[i] = kernelInput(1420*rng.Float64()-710, c.dose, c.s, c.t)
		}
		checkKernelMatchesGo(t, dense, c.dose, c.s, c.t, false)

		out := make([]float64, len(mixed))
		SigmoidDoseInto(out, mixed, c.dose, c.s, c.t)
		for _, v := range out {
			subnormal = subnormal || v != 0 && math.Abs(v) < 0x1p-1022
		}
	}
	if !subnormal {
		t.Fatal("no result below the smallest normal float64 was checked")
	}
	// A NaN steepness against NaN inputs of other payloads: z's two-NaN
	// product keeps Go's operand order.
	nanS := math.Float64frombits(0x7ff8000000000bad)
	in := []float64{math.Float64frombits(0x7ff8000000000123), 0.3, math.Float64frombits(0xfff4000000000456), -0.2, 0.225}
	for n := range in {
		checkKernelMatchesGo(t, in[:n+1], 1, nanS, 0.225, false)
	}
}

// FuzzSigmoidKernelMatchesGo is TestSigmoidKernelMatchesGo on fuzzed
// slices: each 3 data bytes make one element, an in-range or near-range
// exponent, a tiny one, or one of kernelSpecials, so special and
// ordinary lanes share vectors; the data's length sets the slice's.
func FuzzSigmoidKernelMatchesGo(f *testing.F) {
	f.Add(uint8(0), false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), true, []byte("mixed special lanes and ordinary ones"))
	f.Add(uint8(2), false, []byte{3, 0, 0, 3, 5, 0, 3, 11, 0, 0, 255, 127, 1, 0, 128})
	f.Add(uint8(3), true, []byte{3, 12, 0, 3, 13, 0, 0, 0, 0, 3, 14, 0})
	f.Fuzz(func(t *testing.T, which uint8, alias bool, data []byte) {
		if !sigmoidAVX2OK {
			t.Skip("the CPU lacks AVX2 or FMA; SigmoidInto runs the Go loop alone")
		}
		c := kernelCases[int(which)%len(kernelCases)]
		a := make([]float64, len(data)/3)
		for i := range a {
			class, u := data[3*i], float64(int16(uint16(data[3*i+1])|uint16(data[3*i+2])<<8))/32768
			var z float64
			switch class % 4 {
			case 0, 1:
				z = 720 * u
			case 2:
				z = 1e-12 * u
			default:
				z = kernelSpecials[int(data[3*i+1])%len(kernelSpecials)]
			}
			a[i] = kernelInput(z, c.dose, c.s, c.t)
		}
		checkKernelMatchesGo(t, a, c.dose, c.s, c.t, alias)
	})
}

// TestSigmoidGauge: grid.sigmoid_avx2 in the default registry names the
// kernel SigmoidInto runs, and the kernel covers every whole vector.
func TestSigmoidGauge(t *testing.T) {
	want := 0.0
	if sigmoidAVX2OK {
		want = 1
	}
	if got := obs.Default.Snapshot()["grid.sigmoid_avx2"]; got != want {
		t.Fatalf("grid.sigmoid_avx2 = %v, want %v", got, want)
	}
	d := make([]float64, 7)
	if n, _ := sigmoidVec(d, d, 1, 50, 0.225); n != 4*int(want) {
		t.Fatalf("the kernel covered %d of 7 elements, want %d", n, 4*int(want))
	}
}

func TestSigmoidIntoZeroAlloc(t *testing.T) {
	a := make([]float64, 1027)
	for i := range a {
		a[i] = float64(i) / 1000
	}
	a[5] = math.NaN()
	dst := make([]float64, len(a))
	if n := testing.AllocsPerRun(10, func() { SigmoidInto(dst, a, 50, 0.225) }); n != 0 {
		t.Fatalf("SigmoidInto allocated %v times per call", n)
	}
}

func BenchmarkSigmoidInto(b *testing.B) {
	a := NewField(512, 512)
	for i := range a.Data {
		a.Data[i] = float64(i%977) / 700
	}
	dst := NewField(512, 512)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SigmoidInto(dst.Data, a.Data, 50, 0.225)
		}
	})
	b.Run("go loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sigmoidGo(dst.Data, a.Data, 1, 50, 0.225) {
				sigmoidExp(dst.Data)
			}
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range a.Data {
				dst.Data[j] = 1 / (1 + math.Exp(-50*(v-0.225)))
			}
		}
	})
}
