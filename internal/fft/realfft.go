package fft

import (
	"math/cmplx"

	"lsopc/internal/grid"
)

// ForwardReal computes the 2-D DFT of a real field into dst using the
// two-for-one trick: adjacent row pairs are packed as re+i·im, one
// complex transform recovers both rows' spectra via Hermitian symmetry,
// and only the column pass runs at full complex cost. This cuts the row
// pass in half — the mask-spectrum computation of every optimizer
// iteration is a real-input transform.
//
// The column pass is pruned to the output columns |u| ≤ band: only
// columns 0..band and w-band..w-1 are transformed, and on return they
// hold the full transform's bins bit for bit (the same 1-D transforms of
// the same data). Every other column holds row-pass intermediates and
// must not be read. band < 0, or a band covering the whole grid, gives
// the full transform: exactly what Spectrum/Forward(SetReal(src)) would
// produce, up to floating-point rounding.
func (p *Plan2D) ForwardReal(dst *grid.CField, src *grid.Field, band int) {
	if src.W != p.w || src.H != p.h {
		panic("fft: ForwardReal source shape mismatch")
	}
	p.check(dst)

	// Row pass on packed pairs, fanned across the engine's workers. Each
	// pair is packed into, transformed in and unpacked from its own two
	// dst rows, so it needs no scratch.
	p.rrDst, p.rrSrc = dst, src
	p.eng.ForChunk(p.h/2, p.realBody)
	p.rrDst, p.rrSrc = nil, nil

	// Column pass (identical to the complex transform's second stage).
	if band < 0 || 2*band+1 >= p.w {
		transpose(p.scratch, dst.Data, p.w, p.h)
		p.rowPass(p.scratch, p.w, p.h, p.colPlan, false)
		transpose(dst.Data, p.scratch, p.h, p.w)
		return
	}
	// Band columns only: the low run [0, band] then the high run
	// [w-band, w) are gathered as scratch rows 0..2·band.
	lo, hi := p.scratch[:(band+1)*p.h], p.scratch[(band+1)*p.h:(2*band+1)*p.h]
	gatherCols(lo, dst.Data, p.w, p.h, 0)
	gatherCols(hi, dst.Data, p.w, p.h, p.w-band)
	p.rowPass(p.scratch, 2*band+1, p.h, p.colPlan, false)
	scatterCols(dst.Data, lo, p.w, p.h, 0)
	scatterCols(dst.Data, hi, p.w, p.h, p.w-band)
}

// gatherCols copies the len(dst)/h columns of the w×h row-major matrix
// src starting at column x0 into dst, one h-long row per column.
func gatherCols(dst, src []complex128, w, h, x0 int) {
	cols := len(dst) / h
	for y := 0; y < h; y++ {
		row := src[y*w+x0 : y*w+x0+cols]
		for c, v := range row {
			dst[c*h+y] = v
		}
	}
}

// scatterCols is the inverse of gatherCols: it writes the h-long rows of
// src back as the columns of dst starting at x0.
func scatterCols(dst, src []complex128, w, h, x0 int) {
	cols := len(src) / h
	for y := 0; y < h; y++ {
		row := dst[y*w+x0 : y*w+x0+cols]
		for c := range row {
			row[c] = src[c*h+y]
		}
	}
}

// realRows transforms the row pairs (2i, 2i+1), i ∈ [lo, hi), of src into
// the matching rows of dst.
func (p *Plan2D) realRows(dst *grid.CField, src *grid.Field, lo, hi int) {
	w := p.w
	for y := 2 * lo; y < 2*hi; y += 2 {
		r0, r1 := src.Row(y), src.Row(y+1)
		d0, d1 := dst.Row(y), dst.Row(y+1)
		for x := 0; x < w; x++ {
			d0[x] = complex(r0[x], r1[x])
		}
		p.rowPlan.Forward(d0)
		// Unpack: R0[k] = (Z[k]+conj(Z[-k]))/2, R1[k] = (Z[k]−conj(Z[-k]))/2i.
		// Bins k and w−k read each other, so both are read before
		// either is overwritten.
		for k := 0; k <= w/2; k++ {
			m := (w - k) % w
			zk, zm := d0[k], d0[m]
			zmk := cmplx.Conj(zm)
			d0[k] = (zk + zmk) * 0.5
			d1[k] = (zk - zmk) * complex(0, -0.5)
			if m != k {
				zkm := cmplx.Conj(zk)
				d0[m] = (zm + zkm) * 0.5
				d1[m] = (zm - zkm) * complex(0, -0.5)
			}
		}
	}
}
