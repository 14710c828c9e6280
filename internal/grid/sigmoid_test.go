package grid

import (
	"math"
	"testing"
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
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range a.Data {
				dst.Data[j] = 1 / (1 + math.Exp(-50*(v-0.225)))
			}
		}
	})
}
