package fft

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// lcg is a tiny deterministic generator so tests never depend on
// math/rand ordering across Go versions.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func randomBatch(b, w, h int, seed uint64) []*grid.CField {
	r := lcg(seed)
	fields := make([]*grid.CField, b)
	for i := range fields {
		f := grid.NewCField(w, h)
		for j := range f.Data {
			f.Data[j] = complex(r.next()*2-1, r.next()*2-1)
		}
		fields[i] = f
	}
	return fields
}

func cloneBatch(fields []*grid.CField) []*grid.CField {
	out := make([]*grid.CField, len(fields))
	for i, f := range fields {
		c := grid.NewCField(f.W, f.H)
		copy(c.Data, f.Data)
		out[i] = c
	}
	return out
}

// batchEngines is the worker-count sweep used throughout: serial
// reference plus several parallel shapes (explicit counts, since the
// host may report a single CPU).
func batchEngines() []*engine.Engine {
	return []*engine.Engine{
		engine.CPU(),
		engine.New("gpu2", 2),
		engine.New("gpu3", 3),
		engine.New("gpu8", 8),
	}
}

// refGrids are the shapes every batch pass is checked on bit for bit
// against the reference algorithm (reference_test.go): square grids
// from the test presets up to the fast preset's 512², and a
// rectangular one.
var refGrids = [][2]int{{64, 64}, {128, 128}, {512, 512}, {128, 32}}

// refEngines are the engines of the bitwise reference checks: the
// serial one and a multi-worker one with an odd worker count.
func refEngines() []*engine.Engine {
	return []*engine.Engine{engine.CPU(), engine.New("gpu3", 3)}
}

// requireSame fails unless got and want agree bin for bin (==, so the
// sign of an exact zero is not compared).
func requireSame(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for j, v := range got {
		if v != want[j] {
			t.Fatalf("%s: bin %d = %v, want %v", what, j, v, want[j])
		}
	}
}

// The *MatchesPlan2DBitwise tests compare against refTransform, the
// row-then-column algorithm of the transpose-based 2-D plan the batch
// plan replaced.
func TestBatchForwardMatchesPlan2DBitwise(t *testing.T) {
	for _, g := range refGrids {
		w, h := g[0], g[1]
		ref := randomBatch(2, w, h, 1)
		for _, f := range ref {
			refTransform(f, false)
		}
		for _, eng := range refEngines() {
			got := randomBatch(2, w, h, 1)
			NewBatchPlan2D(w, h, eng).BatchForward(got)
			for fi := range got {
				requireSame(t, fmt.Sprintf("%dx%d %s field %d", w, h, eng.Name(), fi), got[fi].Data, ref[fi].Data)
			}
		}
	}
}

func TestBatchInverseMatchesPlan2DBitwise(t *testing.T) {
	for _, g := range refGrids {
		w, h := g[0], g[1]
		ref := randomBatch(2, w, h, 2)
		for _, f := range ref {
			refTransform(f, true)
		}
		for _, eng := range refEngines() {
			got := randomBatch(2, w, h, 2)
			NewBatchPlan2D(w, h, eng).BatchInverse(got)
			for fi := range got {
				requireSame(t, fmt.Sprintf("%dx%d %s field %d", w, h, eng.Name(), fi), got[fi].Data, ref[fi].Data)
			}
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	const w, h, b = 64, 64, 3
	orig := randomBatch(b, w, h, 3)
	work := cloneBatch(orig)
	p := NewBatchPlan2D(w, h, engine.New("t", 4))
	p.BatchForward(work)
	p.BatchInverse(work)
	for fi := range work {
		for j := range work[fi].Data {
			if d := work[fi].Data[j] - orig[fi].Data[j]; math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("round trip drift at field %d bin %d: %v", fi, j, d)
			}
		}
	}
}

// bandFill writes random data into the wrapped row band |v| ≤ band and
// garbage into every other row, returning the batch plus a clean copy
// with exact zeros outside the band.
func bandFill(b, w, h, band int, seed uint64) (dirty, clean []*grid.CField) {
	r := lcg(seed)
	for i := 0; i < b; i++ {
		d := grid.NewCField(w, h)
		c := grid.NewCField(w, h)
		for y := 0; y < h; y++ {
			inBand := y <= band || y >= h-band
			for x := 0; x < w; x++ {
				v := complex(r.next()*2-1, r.next()*2-1)
				if inBand {
					d.Data[y*w+x] = v
					c.Data[y*w+x] = v
				} else {
					// Stale garbage the banded transform must never read.
					d.Data[y*w+x] = complex(1e300, -1e300)
				}
			}
		}
		dirty = append(dirty, d)
		clean = append(clean, c)
	}
	return dirty, clean
}

func TestBatchInverseBandedIgnoresStaleRows(t *testing.T) {
	for _, g := range refGrids {
		w, h := g[0], g[1]
		band := h/16 + 1
		_, clean := bandFill(2, w, h, band, 7)
		// Reference: the full inverse of the zero-padded field.
		for _, f := range clean {
			refTransform(f, true)
		}
		for _, eng := range batchEngines() {
			dirty, _ := bandFill(2, w, h, band, 7)
			NewBatchPlan2D(w, h, eng).BatchInverseBanded(dirty, band)
			for fi := range dirty {
				requireSame(t, fmt.Sprintf("%dx%d %s field %d", w, h, eng.Name(), fi), dirty[fi].Data, clean[fi].Data)
			}
		}
	}
}

func TestBatchInverseBandedFullBandFallback(t *testing.T) {
	const w, h = 16, 16
	// Bands covering the whole grid (or negative) must behave exactly
	// like the dense inverse.
	for _, band := range []int{-1, h / 2, h} {
		got := randomBatch(2, w, h, 11)
		ref := cloneBatch(got)
		p := NewBatchPlan2D(w, h, engine.New("t", 3))
		p.BatchInverseBanded(got, band)
		p.BatchInverse(ref)
		for fi := range got {
			for j, v := range got[fi].Data {
				if v != ref[fi].Data[j] {
					t.Fatalf("band=%d: field %d bin %d differs", band, fi, j)
				}
			}
		}
	}
}

func TestBatchForwardBandedColsMatchesInBand(t *testing.T) {
	for _, g := range refGrids {
		w, h := g[0], g[1]
		band := w/16 + 1
		ref := randomBatch(2, w, h, 13)
		for _, f := range ref {
			refTransform(f, false)
		}
		for _, eng := range batchEngines() {
			got := randomBatch(2, w, h, 13)
			NewBatchPlan2D(w, h, eng).BatchForwardBandedCols(got, band)
			// Only the wrapped band columns |u| ≤ band are defined output.
			for fi := range got {
				for y := 0; y < h; y++ {
					for _, x := range bandCols(w, band) {
						if got[fi].Data[y*w+x] != ref[fi].Data[y*w+x] {
							t.Fatalf("%dx%d %s: field %d bin (%d,%d) = %v, want %v",
								w, h, eng.Name(), fi, x, y, got[fi].Data[y*w+x], ref[fi].Data[y*w+x])
						}
					}
				}
			}
		}
	}
}

func bandCols(w, band int) []int {
	cols := []int{}
	for x := 0; x <= band; x++ {
		cols = append(cols, x)
	}
	for x := w - band; x < w; x++ {
		cols = append(cols, x)
	}
	return cols
}

func TestBatchForwardBandedColsFullBandFallback(t *testing.T) {
	const w, h = 16, 16
	got := randomBatch(2, w, h, 17)
	ref := cloneBatch(got)
	p := NewBatchPlan2D(w, h, engine.New("t", 2))
	p.BatchForwardBandedCols(got, -1)
	p.BatchForward(ref)
	for fi := range got {
		for j, v := range got[fi].Data {
			if v != ref[fi].Data[j] {
				t.Fatalf("field %d bin %d differs", fi, j)
			}
		}
	}
}

func TestBatchPlanEmptyBatch(t *testing.T) {
	p := NewBatchPlan2D(8, 8, engine.CPU())
	p.BatchForward(nil) // must not panic
	p.BatchInverse([]*grid.CField{})
	p.BatchInverseBanded(nil, 2)
	p.BatchForwardBandedCols(nil, 2)
}

// requirePanic fails unless f panics.
func requirePanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestBatchPlanShapeMismatchPanics(t *testing.T) {
	p := NewBatchPlan2D(8, 8, engine.CPU())
	for _, c := range []*grid.CField{grid.NewCField(16, 8), grid.NewCField(8, 4)} {
		bad := []*grid.CField{grid.NewCField(8, 8), c}
		what := fmt.Sprintf("a %dx%d field on an 8x8 plan", c.W, c.H)
		requirePanic(t, "BatchForward of "+what, func() { p.BatchForward(bad) })
		requirePanic(t, "BatchInverse of "+what, func() { p.BatchInverse(bad) })
		requirePanic(t, "BatchInverseBanded of "+what, func() { p.BatchInverseBanded(bad, 2) })
		requirePanic(t, "BatchForwardBandedCols of "+what, func() { p.BatchForwardBandedCols(bad, 2) })
		requirePanic(t, "InverseRealBanded of "+what, func() { p.InverseRealBanded(grid.NewField(8, 8), c, 2) })
		requirePanic(t, "ForwardReal into "+what, func() { p.ForwardReal(c, grid.NewField(8, 8), 2) })
	}
}

func TestNewBatchPlanNonPow2Panics(t *testing.T) {
	for _, g := range [][2]int{{12, 8}, {6, 8}, {8, 6}} {
		requirePanic(t, fmt.Sprintf("a %dx%d plan", g[0], g[1]), func() { NewBatchPlan2D(g[0], g[1], nil) })
	}
}

func benchBatch(b *testing.B, size, batch int) []*grid.CField {
	b.Helper()
	fields := randomBatch(batch, size, size, 5)
	b.ReportAllocs()
	b.ResetTimer()
	return fields
}

func BenchmarkBatchForward128x8(b *testing.B) {
	p := NewBatchPlan2D(128, 128, engine.GPU())
	fields := benchBatch(b, 128, 8)
	for i := 0; i < b.N; i++ {
		p.BatchForward(fields)
	}
}

func BenchmarkBatchInverseBanded128x8(b *testing.B) {
	p := NewBatchPlan2D(128, 128, engine.GPU())
	fields := benchBatch(b, 128, 8)
	// Band 28 matches the kernel box radius at PresetTest scale.
	for i := 0; i < b.N; i++ {
		p.BatchInverseBanded(fields, 28)
	}
}

// hermitianBand returns an n×n spectrum that is exactly Hermitian,
// X(−k) = conj X(k), inside the box |u|, |v| ≤ band (the whole grid for
// band < 0) and zero elsewhere in the row band; rows outside the row
// band hold stale values the banded inverses must never read.
func hermitianBand(n, band int, seed uint64) *grid.CField {
	r := lcg(seed)
	x := grid.NewCField(n, n)
	in := func(f int) bool { return band < 0 || f <= band || f >= n-band }
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			i := v*n + u
			switch {
			case !in(v):
				x.Data[i] = complex(r.next()*1e3, -r.next()*1e3)
			case in(u):
				x.Data[i] = complex(r.next()*2-1, r.next()*2-1)
			}
		}
	}
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if !in(u) || !in(v) {
				continue
			}
			i, j := v*n+u, ((n-v)%n)*n+(n-u)%n
			if i <= j {
				a := (x.Data[i] + complex(real(x.Data[j]), -imag(x.Data[j]))) / 2
				x.Data[i], x.Data[j] = a, complex(real(a), -imag(a))
			}
		}
	}
	return x
}

// realBandedTol bounds max|InverseRealBanded − Re(BatchInverseBanded)|
// relative to max|Re(BatchInverseBanded)|. Both are the same inverse in
// exact arithmetic; they round differently because each real column is
// taken from a packed pair. The measured worst case up to 512 px is
// ~1e-15, so the bound leaves two decades.
const realBandedTol = 1e-13

// checkInverseRealBanded checks InverseRealBanded of src on every
// engine: bit-identical to the reference real-output inverse of src
// with the rows outside the band zeroed, and within realBandedTol of Re
// of the complex banded inverse.
func checkInverseRealBanded(t *testing.T, src *grid.CField, band int, engines []*engine.Engine) {
	t.Helper()
	n := src.W
	ref := src.Clone()
	NewBatchPlan2D(n, n, engine.CPU()).BatchInverseBanded([]*grid.CField{ref}, band)
	var refMax float64
	for _, v := range ref.Data {
		refMax = math.Max(refMax, math.Abs(real(v)))
	}
	clean := src.Clone()
	if band >= 0 && 2*band+1 < n {
		clear(clean.Data[(band+1)*n : (n-band)*n])
	}
	want := refInverseReal(clean)
	for _, eng := range engines {
		got := grid.NewField(n, n)
		NewBatchPlan2D(n, n, eng).InverseRealBanded(got, src.Clone(), band)
		var maxErr float64
		for i, v := range got.Data {
			maxErr = math.Max(maxErr, math.Abs(v-real(ref.Data[i])))
			if v != want.Data[i] {
				t.Fatalf("n=%d band=%d %s: pixel %d = %v, reference %v (must be bit-identical)",
					n, band, eng.Name(), i, v, want.Data[i])
			}
		}
		if maxErr > realBandedTol*refMax {
			t.Fatalf("n=%d band=%d %s: max error %.3g of max %.3g exceeds %g relative",
				n, band, eng.Name(), maxErr, refMax, realBandedTol)
		}
	}
}

func TestInverseRealBandedMatchesComplex(t *testing.T) {
	engines := []*engine.Engine{engine.CPU(), engine.New("gpu3", 3)}
	for _, n := range []int{64, 128, 256, 512} {
		r := n/16 + 1
		for _, band := range []int{r, 2 * r, -1} {
			checkInverseRealBanded(t, hermitianBand(n, band, uint64(n+band)), band, engines)
		}
	}
}

// TestInverseRealBandedMatchesReferenceBitwise runs InverseRealBanded
// on arbitrary (not Hermitian) spectra of every reference grid, the
// rectangular one included, where the real output is meaningless but
// must still be the reference's bit for bit.
func TestInverseRealBandedMatchesReferenceBitwise(t *testing.T) {
	for _, g := range refGrids {
		w, h := g[0], g[1]
		for _, band := range []int{h/16 + 1, -1} {
			src := randomBatch(1, w, h, uint64(w+band))[0]
			clean := src.Clone()
			if band >= 0 {
				clear(clean.Data[(band+1)*w : (h-band)*w])
			}
			want := refInverseReal(clean)
			for _, eng := range refEngines() {
				got := grid.NewField(w, h)
				NewBatchPlan2D(w, h, eng).InverseRealBanded(got, src.Clone(), band)
				for i, v := range got.Data {
					if v != want.Data[i] {
						t.Fatalf("%dx%d band %d %s: pixel %d = %v, want %v", w, h, band, eng.Name(), i, v, want.Data[i])
					}
				}
			}
		}
	}
}

// FuzzInverseRealBandedMatchesComplex checks InverseRealBanded against
// the complex banded inverse on exactly Hermitian 64 px spectra: the
// first byte picks the band, the rest seed the values.
func FuzzInverseRealBandedMatchesComplex(f *testing.F) {
	engines := []*engine.Engine{engine.CPU(), engine.New("gpu3", 3)}
	f.Add([]byte{5, 1, 2, 3})
	f.Add([]byte{31, 0xff})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const n = 64
		band := int(data[0]) - 1 // −1 (full grid) up to beyond the grid
		var seed uint64
		for _, b := range data[1:] {
			seed = seed*131 + uint64(b)
		}
		checkInverseRealBanded(t, hermitianBand(n, band, seed), band, engines)
	})
}
