package litho

import (
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
	copyBand(s.accum, s.smallSpec, band, s.rescale)
	s.batch.InverseRealBanded(dst, s.accum, band)
}

// lowPassSamples sets dst (m×m) to the samples of w low-passed to the
// box |f| ≤ band on the reduced grid: Ŵ output-pruned to the band on the
// full grid, copied into the small spectrum with the (m/N)² sample
// scale, and inverse-transformed there by a real-output pass. s.accum
// is its scratch.
func (s *Simulator) lowPassSamples(dst, w *grid.Field, band int) {
	s.batch.ForwardReal(s.accum, w, band)
	copyBand(s.smallSpec, s.accum, band, s.rescale)
	s.small.InverseRealBanded(dst, s.smallSpec, band)
}

// copyBand zeroes the wrapped row band |v| ≤ band of dst and copies the
// box |u|, |v| ≤ band of src into it, times scale, with every bin read
// and written at its wrapped index on its own grid. The banded inverse
// transforms read nothing outside the row band.
func copyBand(dst, src *grid.CField, band int, scale float64) {
	n, m := dst.W, src.W
	c := complex(scale, 0)
	for v := -band; v <= band; v++ {
		dv, sv := (v+n)%n, (v+m)%m
		row := dst.Data[dv*n : (dv+1)*n]
		for i := range row {
			row[i] = 0
		}
		srow := src.Data[sv*m : (sv+1)*m]
		for u := -band; u <= band; u++ {
			row[(u+n)%n] = srow[(u+m)%m] * c
		}
	}
}

// hermitianPart replaces the wrapped box |u|, |v| ≤ band of c by its
// Hermitian part (c(k) + conj c(−k))/2, bin pairs set exactly conjugate,
// so a real-output inverse of the box gives Re of the complex inverse.
// A band covering the grid symmetrises every bin.
func hermitianPart(c *grid.CField, band int) {
	n := c.W
	in := func(f int) bool { return 2*band+1 >= n || f <= band || f >= n-band }
	for v := 0; v < n; v++ {
		if !in(v) {
			continue
		}
		row := c.Data[v*n : (v+1)*n]
		mirror := c.Data[((n-v)%n)*n : ((n-v)%n+1)*n]
		for u := range row {
			if !in(u) {
				continue
			}
			mu := (n - u) % n
			i, j := v*n+u, ((n-v)%n)*n+mu
			if i > j {
				continue
			}
			a, b := row[u], mirror[mu]
			h := complex((real(a)+real(b))/2, (imag(a)-imag(b))/2)
			row[u], mirror[mu] = h, complex(real(h), -imag(h))
		}
	}
}
