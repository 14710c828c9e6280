package procwin

import (
	"fmt"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/rt"
)

// referenceSweep is the dense per-kernel sweep the session path replaced:
// every kernel's full spectrum product (MulInto) through an unbatched
// full Plan2D inverse, accumulated kernel by kernel. realSpec selects the
// mask spectrum: the session's real-input transform, or (false) the
// complex transform of the mask the dense sweep used to take.
func referenceSweep(t *testing.T, a *Analyzer, mask *grid.Field, cut CutLine, realSpec bool) (*Result, []*grid.Field) {
	t.Helper()
	n := a.sim.GridSize()
	plan := fft.NewPlan2D(n, n, engine.CPU())
	spec := grid.NewCField(n, n)
	if realSpec {
		a.sim.MaskSpectrumInto(spec, mask)
	} else {
		spec.SetReal(mask)
		plan.Forward(spec)
	}
	field := grid.NewCField(n, n)
	res := &Result{}
	var aerials []*grid.Field
	for fi, f := range a.cfg.FocusValues() {
		bank, err := rt.OpticsBankFor(a.sim.Config().Optics, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		aerial := grid.NewField(n, n)
		for _, k := range bank.Kernels {
			k.MulInto(field, spec)
			plan.Inverse(field)
			field.AccumAbsSq(aerial, k.Weight)
		}
		aerials = append(aerials, aerial)
		for _, d := range a.cfg.DoseValues() {
			res.Points = append(res.Points, Point{DefocusNM: f, Dose: d, CDNM: a.measureCD(aerial, d, cut)})
		}
		if fi == 0 {
			res.TargetCD = a.measureCD(aerial, 1, cut)
		}
	}
	return res, aerials
}

// blockMask is a deterministic pseudo-random pattern of 4×4 blocks.
func blockMask(n int, seed uint64) *grid.Field {
	m := grid.NewField(n, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for by := 0; by < n; by += 4 {
		for bx := 0; bx < n; bx += 4 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x%3 != 0 {
				continue
			}
			for y := by; y < by+4; y++ {
				for xx := bx; xx < bx+4; xx++ {
					m.Set(xx, y, 1)
				}
			}
		}
	}
	return m
}

// TestSweepMatchesDensePerKernelSweep pins the session sweep to the dense
// per-kernel sweep on the default 6×5 matrix, whose inner focus values
// need banks the session does not hold: from one mask spectrum every
// focus aerial is bit-identical, so is every CD; from the complex mask
// transform the old sweep took, the CDs still agree. Serial and
// three-worker sessions give the same result.
func TestSweepMatchesDensePerKernelSweep(t *testing.T) {
	const n = 64
	masks := map[string]*grid.Field{
		"line8":   lineMask(n, 4),
		"line12":  lineMask(n, 6),
		"blocks1": blockMask(n, 1),
		"blocks2": blockMask(n, 2),
	}
	cuts := []CutLine{{X: 32, Y: 32, Horizontal: true}, {X: 30, Y: 20}}
	for _, eng := range []*engine.Engine{engine.CPU(), engine.New("pw-test", 3)} {
		a, err := New(DefaultConfig(testLitho()), testSim(t, eng))
		if err != nil {
			t.Fatal(err)
		}
		for name, mask := range masks {
			for _, cut := range cuts {
				label := fmt.Sprintf("%s/%s/%+v", eng.Name(), name, cut)
				got, err := a.Sweep(mask, cut)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Points) != 6*5 {
					t.Fatalf("%s: %d points, want 30", label, len(got.Points))
				}
				ref, refAerials := referenceSweep(t, a, mask, cut, true)
				assertSameResult(t, label, got, ref)
				dense, _ := referenceSweep(t, a, mask, cut, false)
				assertSameResult(t, label+" complex spectrum", got, dense)

				spec := grid.NewCField(n, n)
				a.sim.MaskSpectrumInto(spec, mask)
				aerial := grid.NewField(n, n)
				for fi, f := range a.cfg.FocusValues() {
					if err := a.sim.AerialAtFocus(aerial, spec, f); err != nil {
						t.Fatal(err)
					}
					for i, v := range aerial.Data {
						if v != refAerials[fi].Data[i] {
							t.Fatalf("%s: focus %g aerial differs at %d: %v vs %v", label, f, i, v, refAerials[fi].Data[i])
						}
					}
				}
			}
		}
	}
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TargetCD != want.TargetCD || len(got.Points) != len(want.Points) {
		t.Fatalf("%s: target CD %g (%d points), want %g (%d points)",
			label, got.TargetCD, len(got.Points), want.TargetCD, len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, got.Points[i], want.Points[i])
		}
	}
}
