package fft

import (
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

func TestBatchForwardMatchesPlan2DBitwise(t *testing.T) {
	const w, h, b = 32, 16, 5
	ref := cloneBatch(randomBatch(b, w, h, 1))
	p2 := NewPlan2D(w, h, engine.CPU())
	for _, f := range ref {
		p2.Forward(f)
	}
	for _, eng := range batchEngines() {
		got := randomBatch(b, w, h, 1)
		NewBatchPlan2D(w, h, eng).BatchForward(got)
		for fi := range got {
			for j, v := range got[fi].Data {
				if v != ref[fi].Data[j] {
					t.Fatalf("%s: field %d bin %d = %v, want %v", eng.Name(), fi, j, v, ref[fi].Data[j])
				}
			}
		}
	}
}

func TestBatchInverseMatchesPlan2DBitwise(t *testing.T) {
	const w, h, b = 16, 32, 4
	ref := cloneBatch(randomBatch(b, w, h, 2))
	p2 := NewPlan2D(w, h, engine.CPU())
	for _, f := range ref {
		p2.Inverse(f)
	}
	for _, eng := range batchEngines() {
		got := randomBatch(b, w, h, 2)
		NewBatchPlan2D(w, h, eng).BatchInverse(got)
		for fi := range got {
			for j, v := range got[fi].Data {
				if v != ref[fi].Data[j] {
					t.Fatalf("%s: field %d bin %d = %v, want %v", eng.Name(), fi, j, v, ref[fi].Data[j])
				}
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
	const w, h, b, band = 32, 32, 3, 5
	for _, eng := range batchEngines() {
		dirty, clean := bandFill(b, w, h, band, 7)
		p := NewBatchPlan2D(w, h, eng)
		p.BatchInverseBanded(dirty, band)
		// Reference: full inverse of the zero-padded field.
		p2 := NewPlan2D(w, h, engine.CPU())
		for _, f := range clean {
			p2.Inverse(f)
		}
		for fi := range dirty {
			for j, v := range dirty[fi].Data {
				if v != clean[fi].Data[j] {
					t.Fatalf("%s: field %d bin %d = %v, want %v", eng.Name(), fi, j, v, clean[fi].Data[j])
				}
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
	const w, h, b, band = 32, 16, 4, 6
	for _, eng := range batchEngines() {
		got := randomBatch(b, w, h, 13)
		ref := cloneBatch(got)
		NewBatchPlan2D(w, h, eng).BatchForwardBandedCols(got, band)
		p2 := NewPlan2D(w, h, engine.CPU())
		for _, f := range ref {
			p2.Forward(f)
		}
		// Only the wrapped band columns |u| ≤ band are defined output.
		for fi := range got {
			for y := 0; y < h; y++ {
				for _, x := range bandCols(w, band) {
					if got[fi].Data[y*w+x] != ref[fi].Data[y*w+x] {
						t.Fatalf("%s: field %d bin (%d,%d) = %v, want %v",
							eng.Name(), fi, x, y, got[fi].Data[y*w+x], ref[fi].Data[y*w+x])
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

func TestBatchPlanShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched field shape must panic")
		}
	}()
	NewBatchPlan2D(8, 8, engine.CPU()).BatchForward([]*grid.CField{grid.NewCField(16, 8)})
}

func TestNewBatchPlanNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size must panic")
		}
	}()
	NewBatchPlan2D(12, 8, nil)
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

func BenchmarkPlan2DForward128x8(b *testing.B) {
	// The unbatched baseline: eight sequential Plan2D transforms.
	p := NewPlan2D(128, 128, engine.GPU())
	fields := benchBatch(b, 128, 8)
	for i := 0; i < b.N; i++ {
		for _, f := range fields {
			p.Forward(f)
		}
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

// checkInverseRealBanded compares InverseRealBanded of src on every
// engine with Re of the complex banded inverse: bit-identical across
// engines, within realBandedTol of the complex path.
func checkInverseRealBanded(t *testing.T, src *grid.CField, band int, engines []*engine.Engine) {
	t.Helper()
	n := src.W
	ref := src.Clone()
	NewBatchPlan2D(n, n, engine.CPU()).BatchInverseBanded([]*grid.CField{ref}, band)
	var refMax float64
	for _, v := range ref.Data {
		refMax = math.Max(refMax, math.Abs(real(v)))
	}
	var first *grid.Field
	for _, eng := range engines {
		got := grid.NewField(n, n)
		NewBatchPlan2D(n, n, eng).InverseRealBanded(got, src.Clone(), band)
		var maxErr float64
		for i, v := range got.Data {
			maxErr = math.Max(maxErr, math.Abs(v-real(ref.Data[i])))
		}
		if maxErr > realBandedTol*refMax {
			t.Fatalf("n=%d band=%d %s: max error %.3g of max %.3g exceeds %g relative",
				n, band, eng.Name(), maxErr, refMax, realBandedTol)
		}
		if first == nil {
			first = got
			continue
		}
		for i, v := range got.Data {
			if v != first.Data[i] {
				t.Fatalf("n=%d band=%d %s: pixel %d = %v, %s gave %v (must be bit-identical)",
					n, band, eng.Name(), i, v, engines[0].Name(), first.Data[i])
			}
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
