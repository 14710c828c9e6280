package optics

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

func randSpec(n int, seed int64) *grid.CField {
	rng := rand.New(rand.NewSource(seed))
	c := grid.NewCField(n, n)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

// TestSparseMulMatchesDense pins the sparse kernel representation to the
// dense reference: MulInto must equal the full-grid Hadamard product
// with the dense expansion.
func TestSparseMulMatchesDense(t *testing.T) {
	const n = 64
	cfg := testConfig(n, 5)
	bank, err := NewBank(cfg, 25, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	src := randSpec(n, 9)
	for ki, k := range bank.Kernels {
		sparse := grid.NewCField(n, n)
		k.MulInto(sparse, src)
		dense := grid.NewCField(n, n)
		dense.Mul(src, k.Dense(n))
		if !sparse.Equal(dense, 1e-12) {
			t.Fatalf("kernel %d: sparse multiply differs from dense", ki)
		}
	}
}

// TestSparseAccumFlipMatchesDense pins the adjoint multiply to the dense
// flipped-spectrum reference.
func TestSparseAccumFlipMatchesDense(t *testing.T) {
	const n = 64
	cfg := testConfig(n, 4)
	bank, err := NewBank(cfg, 25, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	src := randSpec(n, 10)
	for ki, k := range bank.Kernels {
		sparse := randSpec(n, 11) // pre-filled accumulator
		dense := sparse.Clone()

		k.AccumFlipMul(sparse, src, 0.37i)

		prod := grid.NewCField(n, n)
		prod.Mul(src, k.DenseFlip(n))
		dense.AddScaled(prod, 0.37i)

		if !sparse.Equal(dense, 1e-12) {
			t.Fatalf("kernel %d: sparse adjoint multiply differs from dense", ki)
		}
	}
}

func TestDenseDoubleFlipIdentity(t *testing.T) {
	cfg := testConfig(64, 3)
	bank, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	k := bank.Kernels[0]
	a := k.Dense(64)
	flip := k.DenseFlip(64)
	back := grid.NewCField(64, 64)
	back.FlipInto(flip)
	if !back.Equal(a, 0) {
		t.Fatal("double flip must restore the spectrum")
	}
}

func TestKernelBoxFitsRadius(t *testing.T) {
	cfg := testConfig(128, 4)
	bank, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range bank.Kernels {
		if k.Box.W != 2*k.R+1 || k.Box.H != 2*k.R+1 {
			t.Fatalf("kernel %d: box %dx%d does not match R=%d", ki, k.Box.W, k.Box.H, k.R)
		}
		// Energy must be concentrated strictly inside the box rim (the
		// rolloff margin rows should be zero).
		side := 2*k.R + 1
		for i := 0; i < side; i++ {
			if cmplx.Abs(k.Box.At(i, 0)) != 0 || cmplx.Abs(k.Box.At(0, i)) != 0 {
				t.Fatalf("kernel %d: energy on box rim", ki)
			}
		}
	}
}

func TestBoxRadiusClampedToGrid(t *testing.T) {
	cfg := testConfig(16, 1)
	// The 16-px grid cannot hold the full pupil box: it must clamp.
	if r := cfg.boxRadius(); r > 16/2-1 {
		t.Fatalf("box radius %d exceeds clamp", r)
	}
}

func TestKernelRejectsOversizedGrid(t *testing.T) {
	cfg := testConfig(128, 1)
	bank, err := NewBank(cfg, 0, engine.CPU())
	if err != nil {
		t.Fatal(err)
	}
	k := bank.Kernels[0]
	small := grid.NewCField(8, 8) // smaller than the kernel box
	defer func() {
		if recover() == nil {
			t.Fatal("undersized grid accepted")
		}
	}()
	k.MulInto(small, small.Clone())
}

// TestBandMultipliesAcrossGrids pins the reduced-grid forms of the two
// band multiplies: MulIntoBand onto a smaller grid writes the box
// product at each bin's wrapped index there (and zeroes the rest of the
// band rows), and AccumFlipMul from a smaller grid equals the same-grid
// multiply of that field zero-padded to the large grid, bit for bit.
func TestBandMultipliesAcrossGrids(t *testing.T) {
	const n, m, r = 32, 8, 3
	k := Kernel{Weight: 0.5, R: r, Box: randSpec(2*r+1, 3)}
	src := randSpec(n, 4)
	full := grid.NewCField(n, n)
	k.MulInto(full, src)
	small := randSpec(m, 5) // stale data the band rows must overwrite
	k.MulIntoBand(small, src)
	padded := grid.NewCField(n, n)
	for v := -r; v <= r; v++ {
		for u := -m / 2; u < m/2; u++ {
			got := small.Data[gridIndex(u, v, m)]
			want := complex128(0)
			if u >= -r && u <= r {
				want = full.Data[gridIndex(u, v, n)]
				padded.Data[gridIndex(u, v, n)] = got
			}
			if got != want {
				t.Fatalf("MulIntoBand bin (%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}

	acc := randSpec(n, 6)
	ref := acc.Clone()
	k.AccumFlipMul(acc, small, 0.37i)
	k.AccumFlipMul(ref, padded, 0.37i)
	if !acc.Equal(ref, 0) {
		t.Fatal("AccumFlipMul from the small grid differs from the zero-padded field")
	}
}

// TestAccumFlipMulRowsMatchWhole checks that accumulating the rows of
// AccumFlipMul one at a time, in reverse and with rows outside the box
// included as no-ops, is AccumFlipMul bit for bit, from a same-size and
// a smaller source grid.
func TestAccumFlipMulRowsMatchWhole(t *testing.T) {
	const n, r = 32, 3
	k := Kernel{Weight: 0.5, R: r, Box: randSpec(2*r+1, 7)}
	for _, m := range []int{n, 8} {
		src := randSpec(m, 8)
		want := randSpec(n, 9)
		got := want.Clone()
		k.AccumFlipMul(want, src, 0.37i)
		for v := n / 2; v >= -n/2; v-- {
			k.AccumFlipMulRow(got, src, 0.37i, v)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("m=%d: row-by-row AccumFlipMulRow differs from AccumFlipMul", m)
		}
	}
}
