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
// dst receives exactly what Spectrum/Forward(SetReal(src)) would
// produce, up to floating-point rounding.
func (p *Plan2D) ForwardReal(dst *grid.CField, src *grid.Field) {
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
	transpose(p.scratch, dst.Data, p.w, p.h)
	p.rowPass(p.scratch, p.w, p.h, p.colPlan, false)
	transpose(dst.Data, p.scratch, p.h, p.w)
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
