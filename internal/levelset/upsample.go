package levelset

import (
	"fmt"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
)

// UpsampleSpectral interpolates ψ onto a factor×-finer grid by spectral
// zero-padding: the coarse spectrum is embedded in the centre (wrapped
// layout: the four corner quadrants) of the fine spectrum, Nyquist
// rows/columns are split half-and-half between their two aliases to
// keep the fine spectrum Hermitian, and the inverse transform yields
// the band-limited (sinc) interpolant — the smoothest function through
// the coarse samples, which is exactly what a smooth level-set function
// wants at a resolution hand-off. The caller then applies fast-sweeping
// (sub-pixel) redistancing (ReinitializeFMM); the interpolation
// preserves the zero contour's sub-pixel position, the redistancing
// restores the unit-gradient property at the new pixel pitch.
//
// factor must be a power of two ≥ 1; dimensions must be powers of two.
// factor 1 returns a clone. Both transforms run on eng (nil means
// engine.CPU()), bit for bit the same on every engine. The fine
// spectrum is zero outside the coarse row band |v| ≤ h/2, so its
// inverse is the banded one, which skips those rows: the 1-D transform
// of a zero row is exactly zero, so skipping it changes no bit.
func UpsampleSpectral(psi *grid.Field, factor int, eng *engine.Engine) *grid.Field {
	if factor == 1 {
		return psi.Clone()
	}
	if factor < 1 || !grid.IsPow2(factor) {
		panic(fmt.Sprintf("levelset: upsample factor %d is not a power of two", factor))
	}
	w, h := psi.W, psi.H
	fw, fh := w*factor, h*factor

	coarse := grid.NewCField(w, h)
	coarse.SetReal(psi)
	fft.NewBatchPlan2D(w, h, eng).BatchForward([]*grid.CField{coarse})

	// Per-axis bin spreading: ordinary bins map to one fine bin, the
	// Nyquist bin (signed ±n/2 is ambiguous) splits evenly between both
	// aliases so the padded spectrum stays Hermitian and the inverse
	// transform stays real.
	uIdx, uWgt := spreadAxis(w, fw)
	vIdx, vWgt := spreadAxis(h, fh)

	fine := grid.NewCField(fw, fh)
	// Forward sums over w·h samples, the fine inverse divides by fw·fh:
	// scaling by factor² preserves function values.
	scale := complex(float64(factor*factor), 0)
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			val := coarse.Data[v*w+u] * scale
			for vi, tv := range vIdx[v] {
				if vWgt[v][vi] == 0 {
					continue
				}
				rowBase := tv * fw
				for ui, tu := range uIdx[u] {
					if uWgt[u][ui] == 0 {
						continue
					}
					fine.Data[rowBase+tu] += val * complex(vWgt[v][vi]*uWgt[u][ui], 0)
				}
			}
		}
	}
	fft.NewBatchPlan2D(fw, fh, eng).BatchInverseBanded([]*grid.CField{fine}, h/2)

	out := grid.NewField(fw, fh)
	fine.Real(out)
	return out
}

// spreadAxis returns, for every coarse bin on an n-point axis, the fine
// bin indices (on the fn-point axis) and weights it contributes to.
// Unused second slots carry weight 0.
func spreadAxis(n, fn int) ([][2]int, [][2]float64) {
	idx := make([][2]int, n)
	wgt := make([][2]float64, n)
	half := n / 2
	for i := 0; i < n; i++ {
		switch {
		case i < half:
			idx[i] = [2]int{i, 0}
			wgt[i] = [2]float64{1, 0}
		case i > half:
			idx[i] = [2]int{fn + i - n, 0}
			wgt[i] = [2]float64{1, 0}
		default: // Nyquist: split between +n/2 and −n/2.
			idx[i] = [2]int{half, fn - half}
			wgt[i] = [2]float64{0.5, 0.5}
		}
	}
	return idx, wgt
}
