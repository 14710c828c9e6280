// Package optics synthesises the partially coherent imaging kernels that
// stand in for the ICCAD 2013 contest's proprietary SOCS kernel data.
//
// The contest distributes 24 SOCS kernels obtained by eigendecomposing
// the Hopkins transmission-cross-coefficient of a 193 nm scanner. We do
// not have that data, so we build a physically equivalent K-kernel model
// by Abbe source-point sampling: the partially coherent source (an
// annulus in σ coordinates) is sampled at K points; each point yields a
// coherent kernel whose spectrum is the shifted pupil function, and the
// point's source intensity becomes the kernel weight μ_k. The aerial
// image is then exactly the paper's Eq. (1):
//
//	I(x,y) = Σ_k μ_k |h_k ⊗ M|².
//
// Like the contest model this gives a band-limited quadratic imaging
// operator. Unlike the contest's eigen-kernels, whose weights decay from
// a dominant first kernel, the Vogel-spiral samples cover equal source
// areas and carry uniform weights μ_k = 1/K; the optimizer never sees
// anything but {μ_k, spectrum(h_k)} either way.
//
// Defocus is modelled as the standard propagation phase
// exp(i·2πδ(√((n/λ)² − |f|²) − n/λ)) across the pupil, with n the
// immersion-medium index, producing the second kernel bank used for the
// inner process-window corner (paper §IV: defocus range ±25 nm).
package optics

import (
	"fmt"
	"math"
	"math/cmplx"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// Config describes the optical system and simulation grid.
type Config struct {
	WavelengthNM float64 // source wavelength λ (193 for ArF)
	NA           float64 // numerical aperture (1.35 immersion)
	MediumIndex  float64 // refractive index of the immersion medium (1.44)
	SigmaIn      float64 // annular source inner radius (σ units)
	SigmaOut     float64 // annular source outer radius (σ units)
	GridSize     int     // simulation grid edge in pixels (power of two)
	PixelNM      float64 // pixel pitch in nm
	Kernels      int     // number of SOCS kernels K (contest uses 24)
}

// Default returns the configuration used throughout the paper's
// experiments: the ICCAD 2013 193 nm immersion system with 24 kernels.
// gridSize and pixelNM select the simulation resolution (2048 px at
// 1 nm/px reproduces the contest scale; smaller grids trade accuracy
// for speed).
func Default(gridSize int, pixelNM float64) Config {
	return Config{
		WavelengthNM: 193,
		NA:           1.35,
		MediumIndex:  1.44,
		SigmaIn:      0.5,
		SigmaOut:     0.8,
		GridSize:     gridSize,
		PixelNM:      pixelNM,
		Kernels:      24,
	}
}

// Validate checks the configuration for physical and numerical sanity.
func (c Config) Validate() error {
	switch {
	case c.WavelengthNM <= 0:
		return fmt.Errorf("optics: wavelength must be positive, got %g", c.WavelengthNM)
	case c.NA <= 0:
		return fmt.Errorf("optics: NA must be positive, got %g", c.NA)
	case c.MediumIndex < 1:
		return fmt.Errorf("optics: medium index must be ≥ 1, got %g", c.MediumIndex)
	case c.NA >= c.MediumIndex:
		return fmt.Errorf("optics: NA %g must be below medium index %g", c.NA, c.MediumIndex)
	case c.SigmaIn < 0 || c.SigmaOut <= c.SigmaIn || c.SigmaOut > 1:
		return fmt.Errorf("optics: need 0 ≤ σin < σout ≤ 1, got [%g,%g]", c.SigmaIn, c.SigmaOut)
	case !grid.IsPow2(c.GridSize):
		return fmt.Errorf("optics: grid size %d is not a power of two", c.GridSize)
	case c.PixelNM <= 0:
		return fmt.Errorf("optics: pixel pitch must be positive, got %g", c.PixelNM)
	case c.Kernels < 1:
		return fmt.Errorf("optics: kernel count must be ≥ 1, got %d", c.Kernels)
	}
	// The pupil must be resolvable on the frequency grid.
	cutoffBins := c.NA / c.WavelengthNM * float64(c.GridSize) * c.PixelNM
	if cutoffBins < 2 {
		return fmt.Errorf("optics: pupil cutoff spans %.2f frequency bins; grid too small or pixels too coarse", cutoffBins)
	}
	return nil
}

// CutoffFreq returns the coherent pupil cutoff NA/λ in cycles/nm.
func (c Config) CutoffFreq() float64 { return c.NA / c.WavelengthNM }

// Bank is a complete kernel set for one process condition (focus value).
type Bank struct {
	Cfg       Config
	DefocusNM float64
	Kernels   []Kernel
	// Combined is the Eq. 17 fused kernel Σ μ_k·spectrum(h_k) (weight 1),
	// used by the fast approximate forward path.
	Combined Kernel
}

// sourcePoint is one Abbe sample of the illumination source.
type sourcePoint struct {
	sx, sy float64 // source direction in σ units
	weight float64
}

// sampleSource places exactly k points over the annulus [σin, σout]
// using a Vogel (golden-angle) spiral, which is uniform in source area
// and deterministic. Weights are uniform and normalised so Σ μ_k = 1,
// making a fully open mask image to unit intensity.
func sampleSource(sigmaIn, sigmaOut float64, k int) []sourcePoint {
	const goldenAngle = 2.399963229728653 // π(3−√5)
	pts := make([]sourcePoint, k)
	w := 1 / float64(k)
	for i := 0; i < k; i++ {
		t := (float64(i) + 0.5) / float64(k)
		r := math.Sqrt(sigmaIn*sigmaIn + t*(sigmaOut*sigmaOut-sigmaIn*sigmaIn))
		ang := float64(i) * goldenAngle
		pts[i] = sourcePoint{
			sx:     r * math.Cos(ang),
			sy:     r * math.Sin(ang),
			weight: w,
		}
	}
	return pts
}

// NewBank builds the kernel bank for the given defocus (0 for the
// nominal bank, e.g. 25 for the defocused inner-corner bank). The
// provided engine parallelises kernel construction.
func NewBank(cfg Config, defocusNM float64, eng *engine.Engine) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = engine.CPU()
	}
	pts := sampleSource(cfg.SigmaIn, cfg.SigmaOut, cfg.Kernels)
	b := &Bank{
		Cfg:       cfg,
		DefocusNM: defocusNM,
		Kernels:   make([]Kernel, len(pts)),
	}
	r := cfg.boxRadius()
	eng.For(len(pts), func(k int) {
		box := pupilBox(cfg, pts[k].sx, pts[k].sy, defocusNM, r)
		b.Kernels[k] = Kernel{Weight: pts[k].weight, R: r, Box: box}
	})
	side := 2*r + 1
	combined := grid.NewCField(side, side)
	for _, k := range b.Kernels {
		combined.AddScaled(k.Box, complex(k.Weight, 0))
	}
	b.Combined = Kernel{Weight: 1, R: r, Box: combined}
	return b, nil
}

// boxRadius returns the sparse-spectrum half-width: enough bins to cover
// the pupil shifted to the outermost source point plus the apodisation
// rolloff, clamped so the box fits the grid.
func (c Config) boxRadius() int {
	binWidth := 1 / (float64(c.GridSize) * c.PixelNM)
	r := int(math.Ceil((1+c.SigmaOut)*c.CutoffFreq()/binWidth)) + 2
	if max := c.GridSize/2 - 1; r > max {
		r = max
	}
	return r
}

// freqAt returns the frequency (cycles/nm) of FFT bin i on an n-point
// grid with the given pitch, using the standard wrapped layout.
func freqAt(i, n int, pitch float64) float64 {
	if i > n/2 {
		i -= n
	}
	return float64(i) / (float64(n) * pitch)
}

// pupilBox builds the coherent kernel spectrum for one source point —
// a circular pupil of radius NA/λ shifted by the source direction,
// carrying the defocus propagation phase — restricted to the sparse
// (2r+1)² box around DC. A raised-cosine edge (one frequency bin wide)
// apodises the hard cutoff to keep the spatial kernel well localised.
func pupilBox(cfg Config, sx, sy float64, defocusNM float64, r int) *grid.CField {
	side := 2*r + 1
	box := grid.NewCField(side, side)
	cut := cfg.CutoffFreq()
	nOverLambda := cfg.MediumIndex / cfg.WavelengthNM
	binWidth := 1 / (float64(cfg.GridSize) * cfg.PixelNM)
	// Source shift in cycles/nm: σ coordinates scale the pupil radius.
	shiftX := sx * cut
	shiftY := sy * cut
	for bv := 0; bv < side; bv++ {
		fy := float64(bv-r)*binWidth + shiftY
		for bu := 0; bu < side; bu++ {
			fx := float64(bu-r)*binWidth + shiftX
			fr := math.Hypot(fx, fy)
			if fr >= cut+binWidth {
				continue
			}
			amp := 1.0
			if fr > cut-binWidth {
				// Raised-cosine rolloff across two bins.
				t := (fr - (cut - binWidth)) / (2 * binWidth)
				amp = 0.5 * (1 + math.Cos(math.Pi*t))
			}
			var v complex128
			if defocusNM != 0 {
				arg := nOverLambda*nOverLambda - fr*fr
				if arg < 0 {
					arg = 0
				}
				phase := 2 * math.Pi * defocusNM * (math.Sqrt(arg) - nOverLambda)
				v = complex(amp, 0) * cmplx.Exp(complex(0, phase))
			} else {
				v = complex(amp, 0)
			}
			box.Set(bu, bv, v)
		}
	}
	return box
}

// Radius returns the spectral band half-width (in frequency bins)
// covering every kernel in the bank, the band the pruned FFT passes may
// restrict themselves to. All kernels of a bank share the same box
// radius by construction; the max is taken defensively.
func (b *Bank) Radius() int {
	r := b.Combined.R
	for _, k := range b.Kernels {
		if k.R > r {
			r = k.R
		}
	}
	return r
}
