package levelset

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/kerneltest"
)

// checkMask compares MaskFromPsi (the kernel, then the Go loop on the
// tail) with maskGo alone, both into stale destinations.
func checkMask(t *testing.T, psi []float64) {
	t.Helper()
	want, got := make([]float64, len(psi)), make([]float64, len(psi))
	for i := range want {
		want[i], got[i] = math.NaN(), -3 // stale
	}
	maskGo(want, psi)
	MaskFromPsi(&grid.Field{W: len(got), H: 1, Data: got}, &grid.Field{W: len(psi), H: 1, Data: slices.Clone(psi)})
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("len %d element %d (ψ %v): kernel %v, Go loop %v", len(psi), i, psi[i], got[i], want[i])
		}
	}
}

// TestMaskKernelMatchesGo holds the AVX2 mask extraction to its Go loop
// bit for bit: ψ ≤ 0 gives 1, everything else +0, NaN and −0 included,
// in every lane and at every length mod 4.
func TestMaskKernelMatchesGo(t *testing.T) {
	if !gradMagAVX2OK {
		t.Skip("the CPU lacks AVX2; MaskFromPsi runs its Go loop alone")
	}
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 1 << 14} {
		psi := make([]float64, n)
		for i := range psi {
			psi[i] = kerneltest.Value(rng)
		}
		checkMask(t, psi)
	}
	var psi []float64
	for _, x := range kerneltest.Specials {
		for lane := 0; lane < 4; lane++ {
			for j := 0; j < 4; j++ {
				v := kerneltest.Value(rng)
				if j == lane {
					v = x
				}
				psi = append(psi, v)
			}
		}
	}
	checkMask(t, psi)
}

// FuzzMaskKernelMatchesGo: each data byte makes one pixel's ψ.
func FuzzMaskKernelMatchesGo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !gradMagAVX2OK {
			t.Skip("the CPU lacks AVX2")
		}
		psi := make([]float64, len(data))
		for i, b := range data {
			psi[i] = kerneltest.ByteValue(b)
		}
		checkMask(t, psi)
	})
}
