package fft

import (
	"fmt"
	"math/cmplx"
	"time"

	"lsopc/internal/grid"
)

// ForwardReal computes the 2-D DFT of a real field into dst using the
// two-for-one trick: adjacent row pairs are packed as re+i·im, one
// complex transform recovers both rows' spectra via Hermitian symmetry,
// and only the column pass runs at full complex cost. This cuts the row
// pass in half — the mask-spectrum computation of every optimizer
// iteration is a real-input transform.
//
// The transform is pruned to the output columns |u| ≤ band: the row
// pass unpacks only those bins, and only columns 0..band and
// w-band..w-1 are column-transformed, in the engine-parallel blocks of
// BatchForwardBandedCols. On return they hold the full transform's bins
// bit for bit (the same 1-D transforms of the same data). Every other
// column holds row-pass intermediates and must not be read. band < 0,
// or a band covering the whole grid, gives the full transform: what
// BatchForward of the field as a complex one would produce, up to
// floating-point rounding.
func (p *BatchPlan2D) ForwardReal(dst *grid.CField, src *grid.Field, band int) {
	if src.W != p.w || src.H != p.h {
		panic(fmt.Sprintf("fft: ForwardReal source %dx%d does not match batch plan %dx%d", src.W, src.H, p.w, p.h))
	}
	if p.h < 2 {
		panic("fft: ForwardReal needs a height of at least 2")
	}
	p.one[0] = dst
	p.check(p.one[:])
	start := time.Now()
	if 2*band+1 >= p.w {
		band = -1
	}
	// Row pass on packed pairs, fanned across the engine's workers. Each
	// pair is packed into, transformed in and unpacked from its own two
	// dst rows, so it needs no scratch.
	p.opFields, p.opReal, p.opBand = p.one[:], src, band
	p.eng.ForChunk(p.h/2, p.rowRealBody)
	if band < 0 {
		p.colPass(p.one[:], false, -1)
	} else {
		p.colPassCols(p.one[:], band, false)
	}
	p.opReal, p.one[0] = nil, nil
	mBatchForwardRealNS.Observe(float64(time.Since(start)))
}

// realRows transforms the row pairs (2i, 2i+1), i ∈ [lo, hi), of
// ForwardReal's source into the matching rows of its destination,
// unpacking the bins |u| ≤ opBand (all of them for opBand < 0).
func (p *BatchPlan2D) realRows(lo, hi int) {
	w, src, dst := p.w, p.opReal, p.opFields[0]
	last := w / 2
	if p.opBand >= 0 {
		last = p.opBand
	}
	for y := 2 * lo; y < 2*hi; y += 2 {
		r0, r1 := src.Row(y), src.Row(y+1)
		d0, d1 := dst.Row(y), dst.Row(y+1)
		p.rowPlan.k.pack(d0, r0, r1)
		p.rowPlan.Forward(d0)
		// Unpack: R0[k] = (Z[k]+conj(Z[-k]))/2, R1[k] = (Z[k]−conj(Z[-k]))/2i.
		// Bin 0, and bin w/2 of a full unpack, pair with themselves;
		// bins 1…n pair with w−1…w−n.
		n := min(last, w/2-1)
		unpack(d0[:1], d1[:1], d0[:1], d1[:1])
		unpack(d0[1:n+1], d1[1:n+1], d0[w-n:], d1[w-n:])
		if last == w/2 {
			unpack(d0[last:last+1], d1[last:last+1], d0[last:last+1], d1[last:last+1])
		}
	}
}

// unpack splits the transform Z of a packed row pair (r0 + i·r1) into
// the rows' own spectra. Bin Z[k] = z0[i] pairs with Z[m] = e0[j],
// j = len(e0)−1−i (the e bins run backwards), and unpack sets
//
//	z0[i] = (Z[k] + conj(Z[m]))·0.5   z1[i] = (Z[k] − conj(Z[m]))·(−0.5i)
//	e0[j] = (Z[m] + conj(Z[k]))·0.5   e1[j] = (Z[m] − conj(Z[k]))·(−0.5i)
//
// reading both bins before writing either. The z and e slices are
// disjoint or, for a bin paired with itself, the same single bin,
// whose two writes then agree.
func unpack(z0, z1, e0, e1 []complex128) {
	n := unpackVec(z0, z1, e0, e1)
	unpackGo(z0[n:], z1[n:], e0[:len(e0)-n], e1[:len(e1)-n])
}

// unpackGo is unpack as a Go loop: the reference of the AVX2 kernel,
// which gives the same bits, and the bins it leaves. Never inlined, so
// the one compiled body whose operand order the kernel copies is the
// one that runs. The multiplies by 0.5 and −0.5i are Go's complex
// multiplies by complex(0.5, 0) and complex(0, −0.5), products by the
// zero parts included.
//
//go:noinline
func unpackGo(z0, z1, e0, e1 []complex128) {
	z1, e0, e1 = z1[:len(z0)], e0[:len(z0)], e1[:len(z0)]
	for i, zk := range z0 {
		j := len(e0) - 1 - i
		zm := e0[j]
		zmk, zkm := cmplx.Conj(zm), cmplx.Conj(zk)
		z0[i] = (zk + zmk) * 0.5
		z1[i] = (zk - zmk) * complex(0, -0.5)
		e0[j] = (zm + zkm) * 0.5
		e1[j] = (zm - zkm) * complex(0, -0.5)
	}
}
