package fft

import (
	"math/rand"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

func randField(w, h int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.NewField(w, h)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func TestForwardRealMatchesComplexPath(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {16, 64}, {128, 128}} {
		w, h := dims[0], dims[1]
		p := NewPlan2D(w, h, engine.CPU())
		src := randField(w, h, int64(w+h))

		want := p.Spectrum(src)
		got := grid.NewCField(w, h)
		p.ForwardReal(got, src, -1)

		if !got.Equal(want, 1e-10*float64(w*h)) {
			t.Errorf("%dx%d: ForwardReal differs from complex path", w, h)
		}
	}
}

func TestForwardRealBinaryMask(t *testing.T) {
	// Exactly the optimizer's use case: a 0/1 mask.
	const n = 64
	p := NewPlan2D(n, n, engine.GPU())
	src := grid.NewField(n, n)
	for y := 20; y < 44; y++ {
		for x := 12; x < 52; x++ {
			src.Set(x, y, 1)
		}
	}
	want := p.Spectrum(src)
	got := grid.NewCField(n, n)
	p.ForwardReal(got, src, -1)
	if !got.Equal(want, 1e-9) {
		t.Fatal("mask spectrum mismatch")
	}
	// DC bin must equal the pixel count.
	if real(got.At(0, 0)) != src.Sum() {
		t.Fatalf("DC = %v, want %g", got.At(0, 0), src.Sum())
	}
}

// TestForwardRealBandedMatchesFull: the column-pruned transform leaves
// every bin of the band columns |u| ≤ band bit-identical to the full
// real-input transform, on any engine; a band covering the grid is the
// full transform.
func TestForwardRealBandedMatchesFull(t *testing.T) {
	for _, dims := range [][2]int{{64, 64}, {128, 32}, {32, 128}} {
		w, h := dims[0], dims[1]
		src := randField(w, h, int64(3*w+h))
		full := grid.NewCField(w, h)
		NewPlan2D(w, h, engine.CPU()).ForwardReal(full, src, -1)
		for _, band := range []int{0, 1, 5, w/2 - 1, w / 2, -1} {
			for _, eng := range []*engine.Engine{engine.CPU(), engine.New("banded-test", 3)} {
				got := grid.NewCField(w, h)
				NewPlan2D(w, h, eng).ForwardReal(got, src, band)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if band >= 0 && 2*band+1 < w && x > band && x < w-band {
							continue
						}
						if got.At(x, y) != full.At(x, y) {
							t.Fatalf("%dx%d band %d %v: bin (%d,%d) = %v, full %v",
								w, h, band, eng, x, y, got.At(x, y), full.At(x, y))
						}
					}
				}
			}
		}
	}
}

func TestForwardRealShapeChecks(t *testing.T) {
	p := NewPlan2D(16, 16, engine.CPU())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched source accepted")
		}
	}()
	p.ForwardReal(grid.NewCField(16, 16), grid.NewField(8, 16), -1)
}

func BenchmarkSpectrumComplex512(b *testing.B) {
	p := NewPlan2D(512, 512, engine.CPU())
	src := randField(512, 512, 1)
	dst := grid.NewCField(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.SetReal(src)
		p.Forward(dst)
	}
}

func BenchmarkSpectrumReal512(b *testing.B) {
	p := NewPlan2D(512, 512, engine.CPU())
	src := randField(512, 512, 1)
	dst := grid.NewCField(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardReal(dst, src, -1)
	}
}
