package litho

import (
	"fmt"

	"lsopc/internal/grid"
)

// The per-kernel SOCS work runs on the reduced grid: an m×m grid with m
// the smallest power of two ≥ 4r+1 (capped at the simulation grid N),
// where r is the kernel box radius. It is exact, not an approximation:
//
//   - E_k = h_k ⊗ M is band-limited to |f| ≤ r, so its m×m inverse
//     transform is E_k sampled every N/m pixels, scaled by N²/m².
//   - I = Σ_k μ_k |E_k|² is band-limited to 2r < m/2, so its m×m
//     samples determine it: the full-grid aerial is the band-2r
//     spectrum of the small image, zero-padded and inverse-transformed
//     on the N grid (upsample).
//   - The adjoint reads FFT(W ⊙ conj E_k) only for |f| ≤ r, and those
//     bins depend only on Ŵ for |f| ≤ 2r. On the m grid the band-3r
//     product W_{2r} ⊙ conj E_k aliases to |f| ≥ m − 3r > r, so every
//     bin the adjoint reads is exact (lowPassSamples, adjoint).
//
// Every rescale between the grids is a power of two ((m/N)²), so none
// adds rounding. At m = N the per-kernel batch is the full grid and the
// upsample and low-pass transforms are skipped.

// reducedGrid returns the reduced SOCS grid edge for an n-pixel grid and
// kernel box radius r: the smallest power of two ≥ 4r+1, capped at n.
func reducedGrid(n, r int) int {
	m := 1
	for m < 4*r+1 && m < n {
		m <<= 1
	}
	return m
}

// ReducedGrid returns the edge of the grid the per-kernel coherent fields
// are computed on (see reducedGrid); it equals GridSize when the kernel
// band does not fit a smaller power of two.
func (s *Simulator) ReducedGrid() int { return s.m }

// kernelFields returns the per-kernel m×m field batch, leasing fields
// from the session's pool on first use (Release returns them). At
// K·m²·16 bytes it is a few MB at every preset.
func (s *Simulator) kernelFields(k int) []*grid.CField {
	for len(s.fields) < k {
		s.fields = append(s.fields, s.pool.CField(s.m, s.m))
	}
	return s.fields[:k]
}

// upsample sets dst (N×N) to the band-limited image whose m×m samples
// are small, scaled by (m/N)⁴ to undo the reduced-grid field scale: the
// small image's spectrum, output-pruned to |u| ≤ band, is copied into
// the full-grid band and inverse-transformed by one real-output banded
// pass (the spectrum of a real image is Hermitian).
func (s *Simulator) upsample(dst, small *grid.Field, band int) {
	s.smallSpec.SetReal(small)
	s.single[0] = s.smallSpec
	s.small.BatchForwardBandedCols(s.single[:], band)
	s.copyBand(s.accum, s.smallSpec, band)
	s.batch.InverseRealBanded(dst, s.accum, band)
}

// lowPassSamples sets dst (m×m) to the samples of w low-passed to the
// box |f| ≤ band on the reduced grid: Ŵ output-pruned to the band on the
// full grid, copied into the small spectrum with the (m/N)² sample
// scale, and inverse-transformed there by a real-output pass. s.accum
// is its scratch.
func (s *Simulator) lowPassSamples(dst, w *grid.Field, band int) {
	s.batch.ForwardReal(s.accum, w, band)
	s.copyBand(s.smallSpec, s.accum, band)
	s.small.InverseRealBanded(dst, s.smallSpec, band)
}

// copyBand zeroes the wrapped row band |v| ≤ band of dst and copies the
// box |u|, |v| ≤ band of src into it, times the grid rescale, with
// every bin read and written at its wrapped index on its own grid. The
// banded inverse transforms read nothing outside the row band. The rows
// are independent, so the engine sweeps them one item per row.
func (s *Simulator) copyBand(dst, src *grid.CField, band int) {
	s.opCopy, s.opBand = [2]*grid.CField{dst, src}, band
	s.eng.ForChunk(2*band+1, s.copyBody)
	s.opCopy = [2]*grid.CField{}
}

// copyBandRow is copyBand's row v: zero dst's wrapped row v, then copy
// the box bins of src's row v into it, times scale. The box row is two
// runs, contiguous on both grids: u ∈ [0, band] at the start of the row
// and u ∈ [−band, −1] at its end; the bins between them are zeroed.
func copyBandRow(dst, src *grid.CField, v, band int, scale float64) {
	n, m := dst.W, src.W
	c := complex(scale, 0)
	row := dst.Data[((v+n)%n)*n : ((v+n)%n+1)*n]
	srow := src.Data[((v+m)%m)*m : ((v+m)%m+1)*m]
	clear(row[band+1 : n-band])
	scaleBins(row[:band+1], srow[:band+1], c)
	scaleBins(row[n-band:], srow[m-band:], c)
}

// bandRow returns the signed row of item r of a sweep over the 2·band+1
// rows of the wrapped band |v| ≤ band: 0, 1, …, band, then −band, …, −1.
func bandRow(r, band int) int {
	if r <= band {
		return r
	}
	return r - 2*band - 1
}

// hermitianPart replaces the wrapped box |u|, |v| ≤ band of c by its
// Hermitian part (c(k) + conj c(−k))/2, bin pairs set exactly conjugate,
// so a real-output inverse of the box gives Re of the complex inverse.
// The box must be narrower than the grid (2·band+1 < n), as a kernel
// box is on an even grid.
//
// Row v of the box pairs with row −v, so rows 1…band are visited with
// their mirrors and row 0 with itself. In row v, bin u pairs with bin
// −u of the mirror: u = 0 with 0, and each run of the row with the
// other run of the mirror, backwards (hermitianPairs). Every pair is
// set once, the self-paired bin (0, 0) included.
func hermitianPart(c *grid.CField, band int) {
	n := c.W
	if 2*band+1 >= n {
		panic(fmt.Sprintf("litho: Hermitian box of band %d does not fit a %d grid", band, n))
	}
	for v := 0; v <= band; v++ {
		row := c.Data[v*n : (v+1)*n]
		mirror := c.Data[((n-v)%n)*n : ((n-v)%n+1)*n]
		hermitianPairs(row[:1], mirror[:1])
		hermitianPairs(row[1:band+1], mirror[n-band:])
		if v > 0 {
			hermitianPairs(row[n-band:], mirror[1:band+1])
		}
	}
}
