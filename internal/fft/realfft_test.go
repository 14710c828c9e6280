package fft

import (
	"bytes"
	"fmt"
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

// complexSpectrum is the real field's spectrum by the complex path.
func complexSpectrum(src *grid.Field) *grid.CField {
	c := grid.NewCField(src.W, src.H)
	c.SetReal(src)
	NewBatchPlan2D(src.W, src.H, engine.CPU()).BatchForward([]*grid.CField{c})
	return c
}

func TestForwardRealMatchesComplexPath(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {16, 64}, {128, 128}} {
		w, h := dims[0], dims[1]
		src := randField(w, h, int64(w+h))
		got := grid.NewCField(w, h)
		NewBatchPlan2D(w, h, engine.CPU()).ForwardReal(got, src, -1)
		if !got.Equal(complexSpectrum(src), 1e-10*float64(w*h)) {
			t.Errorf("%dx%d: ForwardReal differs from complex path", w, h)
		}
	}
}

func TestForwardRealBinaryMask(t *testing.T) {
	// Exactly the optimizer's use case: a 0/1 mask.
	const n = 64
	src := grid.NewField(n, n)
	for y := 20; y < 44; y++ {
		for x := 12; x < 52; x++ {
			src.Set(x, y, 1)
		}
	}
	got := grid.NewCField(n, n)
	NewBatchPlan2D(n, n, engine.GPU()).ForwardReal(got, src, -1)
	if !got.Equal(complexSpectrum(src), 1e-9) {
		t.Fatal("mask spectrum mismatch")
	}
	// DC bin must equal the pixel count.
	if real(got.At(0, 0)) != src.Sum() {
		t.Fatalf("DC = %v, want %g", got.At(0, 0), src.Sum())
	}
}

// checkForwardReal requires ForwardReal of src on every engine to leave
// every bin of the band columns |u| ≤ band (all columns when the band
// covers the grid) bit-identical to the reference real-input forward.
func checkForwardReal(t *testing.T, src *grid.Field, band int, engines []*engine.Engine) {
	t.Helper()
	w, h := src.W, src.H
	want := refForwardReal(src)
	for _, eng := range engines {
		got := grid.NewCField(w, h)
		NewBatchPlan2D(w, h, eng).ForwardReal(got, src, band)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if band >= 0 && 2*band+1 < w && x > band && x < w-band {
					continue
				}
				if got.At(x, y) != want.At(x, y) {
					t.Fatalf("%dx%d band %d %s: bin (%d,%d) = %v, reference %v",
						w, h, band, eng.Name(), x, y, got.At(x, y), want.At(x, y))
				}
			}
		}
	}
}

// TestForwardRealBandedMatchesFull: the column-pruned transform leaves
// every bin of the band columns |u| ≤ band bit-identical to the full
// real-input transform, on any engine; a band covering the grid is the
// full transform.
func TestForwardRealBandedMatchesFull(t *testing.T) {
	for _, g := range append([][2]int{{32, 128}}, refGrids...) {
		w, h := g[0], g[1]
		src := randField(w, h, int64(3*w+h))
		for _, band := range []int{0, 1, 5, w/2 - 1, w / 2, -1} {
			checkForwardReal(t, src, band, refEngines())
		}
	}
}

// FuzzForwardRealMatchesTextbook checks ForwardReal against the
// reference real-input forward on 64×32 fields: the first byte picks
// the band (−1, the full grid, up to beyond the grid), each later pair
// of bytes one pixel, the rest staying zero when data runs out early.
func FuzzForwardRealMatchesTextbook(f *testing.F) {
	engines := refEngines()
	f.Add([]byte{5, 1, 2, 3})
	f.Add([]byte{0, 0xff, 0x80})
	f.Add([]byte{33})
	f.Add([]byte{255, 7, 7, 7, 7})
	f.Add(append([]byte{7}, bytes.Repeat([]byte{3, 250, 129, 4}, 40)...)) // rows 0 and 1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const w, h = 64, 32
		band := int(data[0]) - 1
		src := grid.NewField(w, h)
		for i := 1; i+1 < len(data) && i/2 < w*h; i += 2 {
			src.Data[i/2] = float64(int8(data[i])) / (1 + float64(data[i+1]))
		}
		checkForwardReal(t, src, band, engines)
	})
}

func TestForwardRealShapeChecks(t *testing.T) {
	p := NewBatchPlan2D(16, 16, engine.CPU())
	requirePanic(t, "an 8x16 source", func() { p.ForwardReal(grid.NewCField(16, 16), grid.NewField(8, 16), -1) })
	requirePanic(t, "an 8x16 destination", func() { p.ForwardReal(grid.NewCField(8, 16), grid.NewField(16, 16), -1) })
	requirePanic(t, "a 16x1 plan", func() {
		NewBatchPlan2D(16, 1, engine.CPU()).ForwardReal(grid.NewCField(16, 1), grid.NewField(16, 1), -1)
	})
}

func BenchmarkSpectrumComplex512(b *testing.B) {
	p := NewBatchPlan2D(512, 512, engine.CPU())
	src := randField(512, 512, 1)
	dst := []*grid.CField{grid.NewCField(512, 512)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst[0].SetReal(src)
		p.BatchForward(dst)
	}
}

func BenchmarkSpectrumReal512(b *testing.B) {
	p := NewBatchPlan2D(512, 512, engine.CPU())
	src := randField(512, 512, 1)
	dst := grid.NewCField(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardReal(dst, src, -1)
	}
}

// The passes the mask spectrum and the gradient's real-output inverse
// run at PresetFast scale (512² grid, kernel box radius r = 28) on the
// multi-worker engine: ForwardReal pruned to the column band r and 2r,
// and InverseRealBanded on the row band 2r.
const benchR = 28

func BenchmarkForwardReal512(b *testing.B) {
	p := NewBatchPlan2D(512, 512, engine.GPU())
	src := randField(512, 512, 1)
	dst := grid.NewCField(512, 512)
	for _, band := range []int{benchR, 2 * benchR} {
		b.Run(fmt.Sprintf("band=%d", band), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ForwardReal(dst, src, band)
			}
		})
	}
}

func BenchmarkInverseRealBanded512(b *testing.B) {
	p := NewBatchPlan2D(512, 512, engine.GPU())
	spec := hermitianBand(512, 2*benchR, 1)
	src, dst := grid.NewCField(512, 512), grid.NewField(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	// The pass reads only the band rows, and uses them as scratch.
	lo, hi := bandGap(2*benchR, 512)
	for i := 0; i < b.N; i++ {
		copy(src.Data[:lo*512], spec.Data[:lo*512])
		copy(src.Data[hi*512:], spec.Data[hi*512:])
		p.InverseRealBanded(dst, src, 2*benchR)
	}
}
