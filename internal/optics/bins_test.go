package optics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/kerneltest"
)

func skipWithoutBinKernels(t *testing.T) {
	t.Helper()
	if !binsAVX2OK {
		t.Skip("the CPU lacks AVX2; the per-bin loops run in Go alone")
	}
}

func sameBins(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !kerneltest.SameBitsC(got[i], want[i]) {
			t.Fatalf("%s len %d bin %d: kernel %v (%#x %#x), Go loop %v (%#x %#x)", what, len(want), i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// checkMulBins compares mulBins with mulBinsGo into copies of a stale
// dst.
func checkMulBins(t *testing.T, dst, src, box []complex128) {
	t.Helper()
	want, got := slices.Clone(dst), slices.Clone(dst)
	mulBinsGo(want, src, box)
	mulBins(got, src, box)
	sameBins(t, "mulBins", got, want)
}

// checkAccumFlip compares accumFlip with accumFlipGo on copies of dst.
func checkAccumFlip(t *testing.T, dst, src, box []complex128, w complex128) {
	t.Helper()
	want, got := slices.Clone(dst), slices.Clone(dst)
	accumFlipGo(want, src, box, w)
	accumFlip(got, src, box, w)
	sameBins(t, "accumFlip", got, want)
}

// binValue draws a bin part: mostly kerneltest's operands, sometimes an
// exact zero, so zero-valued kernel bins (skipped) sit among the others.
func binValue(rng *rand.Rand) float64 {
	if rng.Intn(5) == 0 {
		return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	}
	return kerneltest.Value(rng)
}

// TestBinKernelsMatchGo holds the AVX2 forms of the band-box multiply
// and the adjoint's flipped accumulate to their Go loops bit for bit:
// special values in both parts of every complex of a pair, zero-valued
// kernel bins (+0 and −0 parts) that must be skipped, every length mod
// 4, stale destinations, and weights with zero, NaN and infinite parts.
func TestBinKernelsMatchGo(t *testing.T) {
	skipWithoutBinKernels(t)
	rng := rand.New(rand.NewSource(35))
	cv := func() complex128 { return complex(binValue(rng), binValue(rng)) }
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 29, 57, 1 << 12} {
		dst, src, box := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		for i := range dst {
			dst[i], src[i], box[i] = cv(), cv(), cv()
		}
		checkMulBins(t, dst, src, box)
		for _, w := range []complex128{complex(0.37, 0), complex(1, 0), complex(-2, 0.5), cv(), complex(math.NaN(), 0), complex(0, math.Inf(1))} {
			checkAccumFlip(t, dst, src, box, w)
		}
	}
	// Each special against each special in every part of a pair.
	var dst, src, box []complex128
	specials := append(slices.Clone(kerneltest.Specials), 0, math.Copysign(0, -1))
	for _, x := range specials {
		for _, y := range specials {
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < 4; j++ {
					p, q, r, s := binValue(rng), binValue(rng), binValue(rng), binValue(rng)
					if j == lane {
						p, q = x, y
					}
					var d, e, c complex128
					switch lane {
					case 0:
						d, e, c = complex(p, r), complex(q, s), complex(r, s)
					case 1:
						d, e, c = complex(r, p), complex(s, q), complex(s, r)
					case 2:
						d, e, c = complex(r, s), complex(p, q), complex(q, p)
					default:
						d, e, c = complex(q, s), complex(r, p), complex(p, q)
					}
					dst, src, box = append(dst, d), append(src, e), append(box, c)
				}
			}
		}
	}
	checkMulBins(t, dst, src, box)
	checkMulBins(t, src, dst, box)
	checkMulBins(t, box, box, src)
	for _, w := range []complex128{complex(0.37, 0), complex(math.NaN(), 0), complex(math.Inf(-1), math.Float64frombits(0x7ff4000000000001))} {
		checkAccumFlip(t, dst, src, box, w)
		checkAccumFlip(t, src, box, dst, w)
		checkAccumFlip(t, box, dst, src, w)
	}
}

// FuzzMulBinsKernelMatchesGo: each 6 data bytes make one bin of dst,
// src and box.
func FuzzMulBinsKernelMatchesGo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte("special lanes between ordinary ones, zero bins among them"))
	f.Add([]byte{200, 201, 202, 203, 50, 50, 204, 205, 206, 207, 208, 209})
	f.Fuzz(func(t *testing.T, data []byte) {
		skipWithoutBinKernels(t)
		dst, src, box := fuzzBins(data)
		checkMulBins(t, dst, src, box)
	})
}

// FuzzAccumFlipKernelMatchesGo: wr and wi make the weight, each 6 data
// bytes one bin of dst, src and box.
func FuzzAccumFlipKernelMatchesGo(f *testing.F) {
	f.Add(byte(10), byte(50), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(byte(200), byte(206), []byte("special lanes between ordinary ones, zero bins among them"))
	f.Fuzz(func(t *testing.T, wr, wi byte, data []byte) {
		skipWithoutBinKernels(t)
		dst, src, box := fuzzBins(data)
		checkAccumFlip(t, dst, src, box, complex(kerneltest.ByteValue(wr), kerneltest.ByteValue(wi)))
	})
}

// fuzzBins turns 6 bytes per bin into dst, src and box; byte 50 is an
// exact zero, so zero-valued kernel bins occur.
func fuzzBins(data []byte) (dst, src, box []complex128) {
	v := func(b byte) float64 { return kerneltest.ByteValue(b) }
	n := len(data) / 6
	dst, src, box = make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for i := range dst {
		b := data[6*i : 6*i+6]
		dst[i], src[i], box[i] = complex(v(b[0]), v(b[1])), complex(v(b[2]), v(b[3])), complex(v(b[4]), v(b[5]))
	}
	return dst, src, box
}

// refMulIntoBand and refAccumFlipMulRow are the band multiplies as one
// loop over the box bins, each bin's wrapped index computed on its own:
// the form MulIntoBand and AccumFlipMulRow had before they were split
// into contiguous runs.
func refMulIntoBand(k Kernel, dst, src *grid.CField) {
	n, m := src.W, dst.W
	side := k.boxSide()
	for bv := 0; bv < side; bv++ {
		v := bv - k.R
		row := dst.Data[gridIndex(0, v, m) : gridIndex(0, v, m)+m]
		clear(row)
		for bu := 0; bu < side; bu++ {
			if c := k.Box.Data[bv*side+bu]; c != 0 {
				u := bu - k.R
				row[gridIndex(u, 0, m)] = src.Data[gridIndex(u, v, n)] * c
			}
		}
	}
}

func refAccumFlipMulRow(k Kernel, dst, src *grid.CField, w complex128, v int) {
	n, m := dst.W, src.W
	side := k.boxSide()
	box := k.Box.Data[(k.R-v)*side : (k.R-v+1)*side]
	for bu, c := range box {
		if c != 0 {
			u := k.R - bu
			dst.Data[gridIndex(u, v, n)] += w * src.Data[gridIndex(u, v, m)] * c
		}
	}
}

// TestBandLoopsMatchReference holds MulIntoBand and AccumFlipMulRow,
// runs, kernels and all, to the per-bin reference loops bit for bit, on
// same-size and reduced grids, boxes of every radius parity with
// zero-valued and special bins, and stale destinations. The references
// are bodies of their own, whose code generator may order the operands
// of a two-NaN operation otherwise, so there any NaN matches any NaN.
func TestBandLoopsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	field := func(n int) *grid.CField {
		f := grid.NewCField(n, n)
		for i := range f.Data {
			f.Data[i] = complex(binValue(rng), binValue(rng))
		}
		return f
	}
	for _, g := range []struct{ n, m, r int }{{16, 16, 2}, {32, 16, 3}, {64, 16, 4}, {64, 32, 7}, {128, 128, 28}} {
		k := Kernel{Weight: 0.5, R: g.r, Box: field(2*g.r + 1)}
		src, stale := field(g.n), field(g.m)
		want, got := stale.Clone(), stale.Clone()
		refMulIntoBand(k, want, src)
		k.MulIntoBand(got, src)
		sameValues(t, "MulIntoBand", got.Data, want.Data)

		small, acc := field(g.m), field(g.n)
		for _, w := range []complex128{complex(0.37, 0), complex(math.NaN(), 0), complex(1, -2)} {
			want, got := acc.Clone(), acc.Clone()
			for v := -g.r; v <= g.r; v++ {
				refAccumFlipMulRow(k, want, small, w, v)
				k.AccumFlipMulRow(got, small, w, v)
			}
			sameValues(t, "AccumFlipMulRow", got.Data, want.Data)
		}
	}
}

// sameValues is sameBins with any NaN matching any NaN.
func sameValues(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i := range want {
		if !same(real(got[i]), real(want[i])) || !same(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s len %d bin %d: %v, reference %v", what, len(want), i, got[i], want[i])
		}
	}
}
