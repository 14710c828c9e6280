package fft

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/kerneltest"
)

// checkUnpack compares unpack (the kernel, then the Go loop on the
// rest) with unpackGo alone. The four slices are laid out in two rows
// of w bins, z at the start and e at the end of each, as realRows has
// them; self pairs bin 0 of each row with itself. Row 1 starts stale.
func checkUnpack(t *testing.T, row []complex128, n int, self bool) {
	t.Helper()
	w := len(row)
	run := func(u func(z0, z1, e0, e1 []complex128)) []complex128 {
		d0, d1 := slices.Clone(row), make([]complex128, w)
		for i := range d1 {
			d1[i] = complex(math.NaN(), -3) // stale
		}
		if self {
			u(d0[:1], d1[:1], d0[:1], d1[:1])
		} else {
			u(d0[:n], d1[:n], d0[w-n:], d1[w-n:])
		}
		return append(d0, d1...)
	}
	want, got := run(unpackGo), run(unpack)
	for i := range want {
		if !kerneltest.SameBitsC(got[i], want[i]) {
			t.Fatalf("w %d n %d self=%v: bin %d of row %d: kernel %v (%#x %#x), Go loop %v (%#x %#x)", w, n, self, i%w, i/w,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// TestUnpackKernelMatchesGo holds the AVX2 unpack of ForwardReal's
// packed rows to its Go loop bit for bit: special values in both parts
// of every bin of a pair and of its mirror, every pair count mod 4,
// a bin paired with itself, and stale destinations.
func TestUnpackKernelMatchesGo(t *testing.T) {
	if !unpackAVX2OK {
		t.Skip("the CPU lacks AVX2; the unpack runs its Go loop alone")
	}
	rng := rand.New(rand.NewSource(35))
	for _, w := range []int{2, 4, 8, 16, 64, 512} {
		row := make([]complex128, w)
		for i := range row {
			row[i] = kerneltest.Complex(rng)
		}
		for n := 0; n <= w/2; n++ {
			checkUnpack(t, row, n, false)
		}
		checkUnpack(t, row, 1, true)
	}
	// Each special against each special in both parts of a bin and its
	// mirror, in every lane position.
	for _, x := range kerneltest.Specials {
		row := make([]complex128, 0, 4*len(kerneltest.Specials)*2)
		for _, y := range kerneltest.Specials {
			for lane := 0; lane < 4; lane++ {
				p := [4]float64{kerneltest.Value(rng), kerneltest.Value(rng), kerneltest.Value(rng), kerneltest.Value(rng)}
				p[lane] = x
				p[(lane+1)%4] = y
				row = append(row, complex(p[0], p[1]), complex(p[2], p[3]))
			}
		}
		checkUnpack(t, row, len(row)/2, false)
		checkUnpack(t, row, len(row)/2-1, false)
		checkUnpack(t, row, 1, true)
	}
}

// FuzzUnpackKernelMatchesGo: each 2 data bytes make one bin of the
// packed row; n picks the pair count.
func FuzzUnpackKernelMatchesGo(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(8), []byte("special lanes between ordinary ones"))
	f.Add(uint8(2), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if !unpackAVX2OK {
			t.Skip("the CPU lacks AVX2")
		}
		row := make([]complex128, len(data)/2)
		for i := range row {
			row[i] = complex(kerneltest.ByteValue(data[2*i]), kerneltest.ByteValue(data[2*i+1]))
		}
		if len(row) == 0 {
			return
		}
		checkUnpack(t, row, int(n)%(len(row)/2+1), false)
		checkUnpack(t, row, 1, true)
	})
}
