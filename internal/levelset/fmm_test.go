package levelset

import (
	"math"
	"testing"

	"lsopc/internal/grid"
)

func TestFMMDiscDistance(t *testing.T) {
	// ψ = exact disc SDF, cubed to destroy |∇ψ|=1; FMM must restore it.
	const n, r = 64, 14.0
	psi := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			d := math.Hypot(float64(x-32), float64(y-32)) - r
			psi.Set(x, y, d*d*d)
		}
	}
	re := ReinitializeFMM(psi)
	// Compare against the analytic disc SDF away from the centre
	// (the upwind scheme loses accuracy at the skeleton point).
	for y := 4; y < n-4; y++ {
		for x := 4; x < n-4; x++ {
			want := math.Hypot(float64(x-32), float64(y-32)) - r
			if math.Abs(want) < 2 || math.Abs(want) > 12 {
				continue
			}
			got := re.At(x, y)
			if math.Abs(got-want) > 1.0 {
				t.Fatalf("FMM distance at (%d,%d): %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestFMMPreservesSignEverywhere(t *testing.T) {
	const n = 48
	m := rectMask(n, 10, 14, 30, 34)
	psi := SignedDistance(m)
	// Distort magnitudes, keep signs.
	for i, v := range psi.Data {
		psi.Data[i] = v * (1 + 0.3*math.Sin(float64(i)))
	}
	re := ReinitializeFMM(psi)
	for i := range re.Data {
		if (re.Data[i] <= 0) != (psi.Data[i] <= 0) {
			t.Fatalf("FMM moved the contour at %d: %g vs %g", i, re.Data[i], psi.Data[i])
		}
	}
}

func TestFMMSubpixelContourPreserved(t *testing.T) {
	// Shift the contour off the pixel lattice: ψ = SDF − 0.25. With the
	// EDT convention the boundary-adjacent pixels sit at ψ = −1 (inside,
	// now −1.25) and +1 (outside, now +0.75), so the zero crossing lies
	// 0.625 of the way from the inside pixel. EDT-based reinit would
	// snap that pixel back to −1; FMM must seed it at the interpolated
	// −0.625 and keep the sub-pixel offset.
	const n = 48
	m := rectMask(n, 12, 12, 36, 36)
	psi := SignedDistance(m)
	psi.AddScaled(onesLike(psi), -0.25) // shift contour outward

	re := ReinitializeFMM(psi)
	got := re.At(12, 24)
	if math.Abs(got-(-0.625)) > 0.1 {
		t.Fatalf("sub-pixel offset lost: ψ(edge) = %g, want ≈ -0.625", got)
	}
	// The EDT path indeed quantises (documented contrast).
	edt := Reinitialize(psi)
	if math.Abs(edt.At(12, 24)-(-1)) > 0.1 {
		t.Fatalf("EDT reinit gave %g, expected the snapped -1", edt.At(12, 24))
	}
}

func onesLike(f *grid.Field) *grid.Field {
	o := grid.NewFieldLike(f)
	o.Fill(1)
	return o
}

func TestFMMGradientNearOne(t *testing.T) {
	const n = 64
	m := rectMask(n, 16, 16, 48, 48)
	psi := SignedDistance(m)
	for i, v := range psi.Data {
		psi.Data[i] = 5 * v // wrong slope
	}
	re := ReinitializeFMM(psi)
	g := grid.NewField(n, n)
	GradMag(g, re)
	bad := 0
	probes := 0
	for y := 4; y < n-4; y++ {
		for x := 4; x < n-4; x++ {
			d := math.Abs(re.At(x, y))
			if d > 2 && d < 10 {
				probes++
				if math.Abs(g.At(x, y)-1) > 0.35 {
					bad++
				}
			}
		}
	}
	if probes == 0 {
		t.Fatal("no probes")
	}
	if float64(bad) > 0.1*float64(probes) {
		t.Fatalf("|∇ψ| far from 1 at %d/%d probes", bad, probes)
	}
}

func TestFMMUniformField(t *testing.T) {
	// No interface at all: everything inside.
	psi := grid.NewField(16, 16)
	psi.Fill(-3)
	re := ReinitializeFMM(psi)
	for _, v := range re.Data {
		if v >= 0 {
			t.Fatal("all-inside field must stay negative")
		}
	}
}

func TestFMMAgreesWithEDTOnRectangle(t *testing.T) {
	const n = 48
	m := rectMask(n, 10, 10, 34, 30)
	sdf := SignedDistance(m)
	// Start FMM from a distorted version; it should land close to the
	// exact EDT (within the half-pixel seeding convention difference).
	distorted := sdf.Clone()
	for i, v := range distorted.Data {
		distorted.Data[i] = v * 3
	}
	re := ReinitializeFMM(distorted)
	for y := 2; y < n-2; y++ {
		for x := 2; x < n-2; x++ {
			d := sdf.At(x, y)
			if math.Abs(d) > 10 {
				continue
			}
			if math.Abs(re.At(x, y)-d) > 1.2 {
				t.Fatalf("FMM vs EDT at (%d,%d): %g vs %g", x, y, re.At(x, y), d)
			}
		}
	}
}
