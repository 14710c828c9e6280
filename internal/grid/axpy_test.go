package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/kerneltest"
)

// checkAddScaled compares AddScaled (the kernel, then the Go loop on the
// tail) with addScaledGo alone, both on copies of f.
func checkAddScaled(t *testing.T, f, a []float64, s float64) {
	t.Helper()
	want, got := slices.Clone(f), slices.Clone(f)
	addScaledGo(want, a, s)
	gf, af := Field{W: len(got), H: 1, Data: got}, Field{W: len(a), H: 1, Data: a}
	gf.AddScaled(&af, s)
	for i := range want {
		if !kerneltest.SameBits(got[i], want[i]) {
			t.Fatalf("len %d s=%v element %d (%v + s·%v): kernel %#x, Go loop %#x", len(f), s, i, f[i], a[i],
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestAddScaledKernelMatchesGo holds the AVX2 axpy (ψ += Δt·v) to its Go
// loop bit for bit: special values in every lane, every length mod 4,
// special scales and a long random run.
func TestAddScaledKernelMatchesGo(t *testing.T) {
	if !axpyAVX2OK {
		t.Skip("the CPU lacks AVX2; AddScaled runs its Go loop alone")
	}
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 64, 1 << 14} {
		f, a := make([]float64, n), make([]float64, n)
		for i := range f {
			f[i], a[i] = kerneltest.Value(rng), kerneltest.Value(rng)
		}
		for _, s := range []float64{0.37, 1, -2.5, 0, math.Inf(1), math.NaN(), math.Float64frombits(0x7ff4000000000bad)} {
			checkAddScaled(t, f, a, s)
		}
	}
	var f, a []float64
	for _, x := range kerneltest.Specials {
		for _, y := range kerneltest.Specials {
			for lane := 0; lane < 4; lane++ {
				for j := 0; j < 4; j++ {
					p, q := kerneltest.Value(rng), kerneltest.Value(rng)
					if j == lane {
						p, q = x, y
					}
					f, a = append(f, p), append(a, q)
				}
			}
		}
	}
	for _, s := range []float64{0.5, math.NaN(), math.Inf(-1), 0} {
		checkAddScaled(t, f, a, s)
		checkAddScaled(t, a, f, s)
	}
}

// FuzzAddScaledKernelMatchesGo: s makes the scale, each 2 data bytes one
// pixel's f and a.
func FuzzAddScaledKernelMatchesGo(f *testing.F) {
	f.Add(byte(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(byte(200), []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, s byte, data []byte) {
		if !axpyAVX2OK {
			t.Skip("the CPU lacks AVX2")
		}
		n := len(data) / 2
		fs, as := make([]float64, n), make([]float64, n)
		for i := range fs {
			fs[i], as[i] = kerneltest.ByteValue(data[2*i]), kerneltest.ByteValue(data[2*i+1])
		}
		checkAddScaled(t, fs, as, kerneltest.ByteValue(s))
	})
}
