package litho

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// Metamorphic tests of the imaging model through the corner-set pass:
// transforming the mask must transform the images the way the physics
// says, on the full per-kernel grid and on a reduced one.

// metaTol bounds the relative error ‖a − b‖/‖a‖ of two aerial images
// that are equal in exact arithmetic; the measured error is ~1e-16.
const metaTol = 1e-12

// metaSources are the illuminations the symmetry tests run under:
// the contest annulus, a conventional disc and a wide annulus, each
// sampled by a different number of source points (SOCS kernels).
var metaSources = []struct {
	sigmaIn, sigmaOut float64
	kernels           int
}{
	{0.5, 0.8, 6},
	{0, 0.6, 5},
	{0.2, 0.75, 9},
}

// metaSim builds a simulator for one source on the full-grid path
// (64 px / 32 nm) or the reduced one (128 px / 8 nm, m = 64).
func metaSim(t *testing.T, reduced bool, sigmaIn, sigmaOut float64, kernels int) *Simulator {
	t.Helper()
	cfg := DefaultConfig(64, 32)
	if reduced {
		cfg = DefaultConfig(128, 8)
	}
	cfg.Optics.SigmaIn, cfg.Optics.SigmaOut, cfg.Optics.Kernels = sigmaIn, sigmaOut, kernels
	s, err := NewSimulator(cfg, engine.New("meta-test", 2))
	if err != nil {
		t.Fatal(err)
	}
	assertReduced(t, s, reduced)
	return s
}

// metaMask is a random block mask with an off-centre L of odd size, so
// no symmetry of the pattern itself hides an error.
func metaMask(n int, seed uint64) *grid.Field {
	m := randomMask(n, seed)
	for y := 3; y < 3+n/4+1; y++ {
		m.Set(5, y, 1)
		m.Set(6, y, 1)
	}
	for x := 5; x < 5+n/3; x++ {
		m.Set(x, 3, 1)
	}
	return m
}

// rot180 returns f rotated by 180° about the origin of the periodic
// grid: g(x, y) = f(−x mod n, −y mod n).
func rot180(f *grid.Field) *grid.Field {
	n := f.W
	g := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			g.Set((n-x)%n, (n-y)%n, f.At(x, y))
		}
	}
	return g
}

// shift returns f circularly shifted by (dx, dy) pixels.
func shift(f *grid.Field, dx, dy int) *grid.Field {
	n := f.W
	g := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			g.Set(((x+dx)%n+n)%n, ((y+dy)%n+n)%n, f.At(x, y))
		}
	}
	return g
}

// cornerAerials runs one forward call over all three corners and
// returns their aerial images.
func cornerAerials(s *Simulator, mask *grid.Field) [3]*grid.Field {
	n := s.GridSize()
	spec := grid.NewCField(n, n)
	s.MaskSpectrumInto(spec, mask)
	var out [3]*grid.Field
	corners := make([]Corner, len(AllConditions))
	for i, cond := range AllConditions {
		out[cond] = grid.NewField(n, n)
		corners[i] = Corner{Cond: cond, Out: &CornerImages{Aerial: out[cond]}}
	}
	s.ForwardCorners(spec, nil, corners)
	return out
}

// TestRotationCommutesWithBestFocusAerial: at best focus every kernel's
// spectrum is a real, shifted pupil, so h_k(−x) = conj h_k(x) and
// |h_k ⊗ M(−·)|(x) = |h_k ⊗ M|(−x): rotating the mask by 180° rotates
// the nominal and outer aerials, whatever the source. (Defocus adds a
// pupil phase that breaks this, so inner is not checked.)
func TestRotationCommutesWithBestFocusAerial(t *testing.T) {
	for _, reduced := range []bool{false, true} {
		for _, src := range metaSources {
			s := metaSim(t, reduced, src.sigmaIn, src.sigmaOut, src.kernels)
			n := s.GridSize()
			mask := metaMask(n, 21)
			direct := cornerAerials(s, mask)
			rotated := cornerAerials(s, rot180(mask))
			for _, cond := range []Condition{Nominal, Outer} {
				label := fmt.Sprintf("%d px σ %.2g–%.2g K=%d %v", n, src.sigmaIn, src.sigmaOut, src.kernels, cond)
				if e := relErr(rot180(direct[cond]), rotated[cond]); e > metaTol {
					t.Errorf("%s: rotated aerial relative error %.3g > %g", label, e, metaTol)
				}
			}
			s.Release()
		}
	}
}

// TestShiftCommutesWithEveryCorner: the imaging model is a sum of
// convolutions, so an integer circular shift of the mask shifts every
// corner's aerial image, defocused or not.
func TestShiftCommutesWithEveryCorner(t *testing.T) {
	for _, reduced := range []bool{false, true} {
		s := metaSim(t, reduced, 0.5, 0.8, 6)
		n := s.GridSize()
		mask := metaMask(n, 33)
		direct := cornerAerials(s, mask)
		for _, d := range [][2]int{{1, 0}, {5, -3}, {n/2 + 7, 29}} {
			shifted := cornerAerials(s, shift(mask, d[0], d[1]))
			for _, cond := range AllConditions {
				label := fmt.Sprintf("%d px shift %v %v", n, d, cond)
				if e := relErr(shift(direct[cond], d[0], d[1]), shifted[cond]); e > metaTol {
					t.Errorf("%s: shifted aerial relative error %.3g > %g", label, e, metaTol)
				}
			}
		}
		s.Release()
	}
}

// TestShiftLeavesCornerCostsUnchanged: shifting mask and target together
// leaves every corner's cost ‖R − R*‖² unchanged. The resist sigmoid
// (slope ≤ s/4) and the sum over pixels magnify the aerials' ~1e-16
// rounding differences, so the bound is 1e-10 relative.
func TestShiftLeavesCornerCostsUnchanged(t *testing.T) {
	const tol = 1e-10
	for _, reduced := range []bool{false, true} {
		s := metaSim(t, reduced, 0.5, 0.8, 6)
		n := s.GridSize()
		mask, target := metaMask(n, 41), randomMask(n, 42)
		costs := func(mask, target *grid.Field) [3]float64 {
			spec := grid.NewCField(n, n)
			s.MaskSpectrumInto(spec, mask)
			corners := []Corner{{Cond: Nominal}, {Cond: Outer}, {Cond: Inner}}
			s.ForwardCorners(spec, target, corners)
			return [3]float64{corners[0].Cost, corners[1].Cost, corners[2].Cost}
		}
		ref := costs(mask, target)
		for _, d := range [][2]int{{3, 11}, {-9, n / 2}} {
			got := costs(shift(mask, d[0], d[1]), shift(target, d[0], d[1]))
			for i, cond := range AllConditions {
				if ref[i] == 0 {
					t.Fatalf("%d px %v: degenerate test: zero cost", n, cond)
				}
				if e := math.Abs(got[i]-ref[i]) / ref[i]; e > tol {
					t.Errorf("%d px shift %v %v: cost %v vs %v (relative %.3g > %g)", n, d, cond, got[i], ref[i], e, tol)
				}
			}
		}
		s.Release()
	}
}
