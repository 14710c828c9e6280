package optics

import (
	"fmt"

	"lsopc/internal/grid"
)

// Kernel is one SOCS term: a weight μ_k and the kernel's spectrum. The
// spectrum is band-limited to a small disk around DC (the shifted pupil
// never exceeds (1+σ_out)·NA/λ), so it is stored sparsely as a
// (2R+1)×(2R+1) box of frequency bins centred on DC: box bin (u, v) with
// u, v ∈ [−R, R] corresponds to wrapped grid bin ((u+N) mod N,
// (v+N) mod N). At contest scale this cuts kernel storage from ~67 MB to
// ~45 KB per kernel and shrinks the spectral multiplies accordingly.
type Kernel struct {
	Weight float64
	R      int          // box half-width in frequency bins
	Box    *grid.CField // (2R+1)×(2R+1) spectrum values
}

// boxSide returns the box edge length.
func (k Kernel) boxSide() int { return 2*k.R + 1 }

// gridIndex maps signed frequency bin (u, v) to the wrapped index on an
// n×n grid.
func gridIndex(u, v, n int) int {
	if u < 0 {
		u += n
	}
	if v < 0 {
		v += n
	}
	return v*n + u
}

// checkGrid panics unless the kernel box fits the n×n target grid.
func (k Kernel) checkGrid(n int) {
	if k.boxSide() > n {
		panic(fmt.Sprintf("optics: kernel box %d exceeds grid %d", k.boxSide(), n))
	}
}

// MulInto sets dst = src ⊙ spectrum(h_k) on the full grid: the product
// is written inside the kernel's support and dst is zeroed elsewhere.
// This realises the frequency-domain half of h_k ⊗ M.
func (k Kernel) MulInto(dst, src *grid.CField) {
	if !dst.SameShape(src) {
		panic("optics: MulInto shape mismatch")
	}
	n := dst.W
	k.checkGrid(n)
	dst.Zero()
	side := k.boxSide()
	for bv := 0; bv < side; bv++ {
		v := bv - k.R
		for bu := 0; bu < side; bu++ {
			c := k.Box.Data[bv*side+bu]
			if c == 0 {
				continue
			}
			gi := gridIndex(bu-k.R, v, n)
			dst.Data[gi] = src.Data[gi] * c
		}
	}
}

// MulIntoBand sets dst = src ⊙ spectrum(h_k) like MulInto, but touches
// only the wrapped row band |v| ≤ R: band rows are zeroed and the box
// product written into them, while rows outside the band are left with
// whatever stale data they held. It pairs with the band-limited inverse
// transform (fft.BatchPlan2D.BatchInverseBanded), which never reads
// outside the band and treats it as exactly zero — together they are
// bit-identical to MulInto followed by a full inverse, at a fraction of
// the memory traffic.
//
// dst may be a smaller square grid than src: the box bins are read at
// their wrapped src index and written at their wrapped dst index, so the
// product lands on the m×m grid that holds the band-limited field
// exactly (the reduced SOCS grid). On equal grids the indices coincide.
func (k Kernel) MulIntoBand(dst, src *grid.CField) {
	n, m := k.checkPair(dst, src, "MulIntoBand")
	side := k.boxSide()
	for bv := 0; bv < side; bv++ {
		v := bv - k.R
		row := dst.Data[gridIndex(0, v, m) : gridIndex(0, v, m)+m]
		for i := range row {
			row[i] = 0
		}
		for bu := 0; bu < side; bu++ {
			c := k.Box.Data[bv*side+bu]
			if c == 0 {
				continue
			}
			u := bu - k.R
			row[gridIndex(u, 0, m)] = src.Data[gridIndex(u, v, n)] * c
		}
	}
}

// AccumFlipMul accumulates dst += w · src ⊙ spectrum(flip(h_k)), the
// adjoint ("h†") multiply of the ILT gradient (Eq. 11). The flipped
// spectrum's support is the mirrored box, handled by index reflection.
// src may be a smaller square grid than dst (the reduced SOCS grid):
// each bin is read at its wrapped src index and accumulated at its
// wrapped dst index.
func (k Kernel) AccumFlipMul(dst, src *grid.CField, w complex128) {
	n, m := k.checkPair(src, dst, "AccumFlipMul")
	side := k.boxSide()
	for bv := 0; bv < side; bv++ {
		v := bv - k.R
		for bu := 0; bu < side; bu++ {
			c := k.Box.Data[bv*side+bu]
			if c == 0 {
				continue
			}
			// spectrum(flip(h))(−u,−v) = spectrum(h)(u,v).
			u := bu - k.R
			dst.Data[gridIndex(-u, -v, n)] += w * src.Data[gridIndex(-u, -v, m)] * c
		}
	}
}

// checkPair panics unless small and large are square grids with small
// no larger than large and the kernel box fitting small; it returns the
// large and small edge lengths.
func (k Kernel) checkPair(small, large *grid.CField, op string) (n, m int) {
	n, m = large.W, small.W
	if large.H != n || small.H != m || m > n {
		panic(fmt.Sprintf("optics: %s shape mismatch: %dx%d vs %dx%d", op, small.W, small.H, large.W, large.H))
	}
	k.checkGrid(m)
	return n, m
}

// Dense expands the kernel spectrum onto a full n×n grid (wrapped FFT
// layout, DC at index 0) — for tests and spatial-domain inspection.
func (k Kernel) Dense(n int) *grid.CField {
	k.checkGrid(n)
	out := grid.NewCField(n, n)
	side := k.boxSide()
	for bv := 0; bv < side; bv++ {
		v := bv - k.R
		for bu := 0; bu < side; bu++ {
			out.Data[gridIndex(bu-k.R, v, n)] = k.Box.Data[bv*side+bu]
		}
	}
	return out
}

// DenseFlip expands the adjoint kernel spectrum spectrum(flip(h_k)).
func (k Kernel) DenseFlip(n int) *grid.CField {
	dense := k.Dense(n)
	flip := grid.NewCField(n, n)
	flip.FlipInto(dense)
	return flip
}
