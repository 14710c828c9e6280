package litho

import (
	"math"

	"lsopc/internal/grid"
)

// Resist diffusion extends the constant-threshold model with the acid
// diffusion blur real photoresists exhibit: the latent image is the
// aerial intensity convolved with a Gaussian of the configured diffusion
// length before thresholding. Setting Config.DiffusionNM = 0 (the
// default and the paper's model) disables it.
//
// The blur is linear and symmetric, so its adjoint is the same blur:
// the gradient path simply blurs the resist sensitivity field W before
// the per-kernel accumulation.

// diffusionKey identifies one memoized diffusion spectrum in the
// resource bank's target cache (the grid size is fixed by the bank).
type diffusionKey struct {
	pixelNM, sigmaNM float64
}

// diffusionSpectrum returns the FFT-layout spectrum of the normalised
// Gaussian blur kernel for the given diffusion length, or nil when
// disabled. The spectrum of a Gaussian with standard deviation σ (nm)
// is exp(−2π²σ²|f|²) — real and positive, so the blur is self-adjoint.
func diffusionSpectrum(n int, pixelNM, sigmaNM float64) *grid.Field {
	if sigmaNM <= 0 {
		return nil
	}
	spec := grid.NewField(n, n)
	c := -2 * math.Pi * math.Pi * sigmaNM * sigmaNM
	for y := 0; y < n; y++ {
		fy := freqBin(y, n) / (float64(n) * pixelNM)
		for x := 0; x < n; x++ {
			fx := freqBin(x, n) / (float64(n) * pixelNM)
			spec.Set(x, y, math.Exp(c*(fx*fx+fy*fy)))
		}
	}
	return spec
}

// freqBin maps FFT index i to its signed bin number.
func freqBin(i, n int) float64 {
	if i > n/2 {
		i -= n
	}
	return float64(i)
}

// blurInPlace convolves f with the diffusion Gaussian via the
// simulator's full-grid batch plan. No-op when diffusion is disabled.
func (s *Simulator) blurInPlace(f *grid.Field) {
	if s.diffusion == nil {
		return
	}
	s.blurScratch.SetReal(f)
	s.single[0] = s.blurScratch
	s.batch.BatchForward(s.single[:])
	for i := range s.blurScratch.Data {
		s.blurScratch.Data[i] *= complex(s.diffusion.Data[i], 0)
	}
	s.batch.BatchInverse(s.single[:])
	s.blurScratch.Real(f)
}
