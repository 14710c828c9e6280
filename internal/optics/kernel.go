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
//
// Each box row splits into two runs that are contiguous on both grids:
// u ∈ [−R, −1] at the end of the row and u ∈ [0, R] at its start. The
// bins between them are zeroed; mulBins writes the runs, +0 for a
// zero-valued kernel bin.
func (k Kernel) MulIntoBand(dst, src *grid.CField) {
	n, m := k.checkPair(dst, src, "MulIntoBand")
	side, r := k.boxSide(), k.R
	for bv := 0; bv < side; bv++ {
		v := bv - r
		row := dst.Data[gridIndex(0, v, m) : gridIndex(0, v, m)+m]
		srow := src.Data[gridIndex(0, v, n) : gridIndex(0, v, n)+n]
		box := k.Box.Data[bv*side : (bv+1)*side]
		clear(row[r+1 : m-r])
		mulBins(row[m-r:], srow[n-r:], box[:r])
		mulBins(row[:r+1], srow[:r+1], box[r:])
	}
}

// AccumFlipMulRow accumulates dst += w · src ⊙ spectrum(flip(h_k)), the
// adjoint ("h†") multiply of the ILT gradient (Eq. 11), over the wrapped
// row v of dst (a no-op for |v| > R). The flipped spectrum's support is
// the mirrored box, handled by index reflection. src may be a smaller
// square grid than dst (the reduced SOCS grid): each bin is read at its
// wrapped src index and accumulated at its wrapped dst index. Every bin
// of dst receives one term per kernel, so rows can be accumulated in any
// order, or concurrently, and each bin still adds its kernels in the
// order the caller visits them.
func (k Kernel) AccumFlipMulRow(dst, src *grid.CField, w complex128, v int) {
	n, m := k.checkPair(src, dst, "AccumFlipMulRow")
	if v < -k.R || v > k.R {
		return
	}
	side, r := k.boxSide(), k.R
	// spectrum(flip(h))(u, v) = spectrum(h)(−u, −v): dst row v reads box
	// row −v, bin u at box column R − u. So each of the row's two runs,
	// u ∈ [0, R] and u ∈ [−R, −1], reads its box columns in reverse.
	box := k.Box.Data[(r-v)*side : (r-v+1)*side]
	drow := dst.Data[gridIndex(0, v, n) : gridIndex(0, v, n)+n]
	srow := src.Data[gridIndex(0, v, m) : gridIndex(0, v, m)+m]
	accumFlip(drow[:r+1], srow[:r+1], box[:r+1], w)
	accumFlip(drow[n-r:], srow[m-r:], box[r+1:], w)
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
