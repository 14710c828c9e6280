package procwin

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/rt"
)

// referenceSweep is the dense per-kernel sweep the session path replaced:
// every kernel's full spectrum product (MulInto) through the batch
// plan's unbanded inverse, one field at a time, accumulated kernel by
// kernel. realSpec selects the
// mask spectrum: the session's real-input transform, or (false) the
// complex transform of the mask the dense sweep used to take.
func referenceSweep(t *testing.T, a *Analyzer, mask *grid.Field, cut CutLine, realSpec bool) (*Result, []*grid.Field) {
	t.Helper()
	n := a.sim.GridSize()
	plan := fft.NewBatchPlan2D(n, n, engine.CPU())
	spec := grid.NewCField(n, n)
	if realSpec {
		a.sim.MaskSpectrumInto(spec, mask)
	} else {
		spec.SetReal(mask)
		plan.BatchForward([]*grid.CField{spec})
	}
	field := grid.NewCField(n, n)
	one := []*grid.CField{field}
	res := &Result{}
	var aerials []*grid.Field
	for fi, f := range a.focusValues() {
		bank, err := rt.OpticsBankFor(a.sim.Config().Optics, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		aerial := grid.NewField(n, n)
		for _, k := range bank.Kernels {
			k.MulInto(field, spec)
			plan.BatchInverse(one)
			field.AccumAbsSq(aerial, k.Weight)
		}
		aerials = append(aerials, aerial)
		for _, d := range a.doseValues() {
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
// need banks the session does not hold. On the 64 px grid the per-kernel
// fields run on the full grid: from one mask spectrum every focus aerial
// is bit-identical, so is every CD; from the complex mask transform the
// old sweep took, the CDs still agree. On the 128 px / 8 nm grid they run
// on the reduced 64² grid: every focus aerial agrees with the dense one
// to a relative 1e-12 and every CD is equal. Serial and three-worker
// sessions give the same result.
func TestSweepMatchesDensePerKernelSweep(t *testing.T) {
	for _, g := range []struct {
		n       int
		pixelNM float64
		reduced bool
		cuts    []CutLine
	}{
		{64, 32, false, []CutLine{{X: 32, Y: 32, Horizontal: true}, {X: 30, Y: 20}}},
		{128, 8, true, []CutLine{{X: 64, Y: 64, Horizontal: true}, {X: 60, Y: 40}}},
	} {
		n := g.n
		masks := map[string]*grid.Field{
			"line8":   lineMask(n, 4),
			"line12":  lineMask(n, 6),
			"blocks1": blockMask(n, 1),
			"blocks2": blockMask(n, 2),
		}
		lc := litho.DefaultConfig(n, g.pixelNM)
		lc.Optics.Kernels = 4
		for _, eng := range []*engine.Engine{engine.CPU(), engine.New("pw-test", 3)} {
			sim, err := litho.NewSimulator(lc, eng)
			if err != nil {
				t.Fatal(err)
			}
			if m := sim.ReducedGrid(); (m < n) != g.reduced {
				t.Fatalf("%d px: per-kernel grid %d, want reduced = %v", n, m, g.reduced)
			}
			a, err := New(sim)
			if err != nil {
				t.Fatal(err)
			}
			for name, mask := range masks {
				for _, cut := range g.cuts {
					label := fmt.Sprintf("%d px/%s/%s/%+v", n, eng.Name(), name, cut)
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
					for fi, f := range a.focusValues() {
						if err := a.sim.AerialAtFocus(aerial, spec, f); err != nil {
							t.Fatal(err)
						}
						assertAerial(t, fmt.Sprintf("%s: focus %g", label, f), aerial, refAerials[fi], g.reduced)
					}
				}
			}
			sim.Release()
		}
	}
}

// assertAerial checks a session aerial against the dense one: bit for
// bit on the full grid, within a relative 1e-12 on a reduced one.
func assertAerial(t *testing.T, label string, got, ref *grid.Field, reduced bool) {
	t.Helper()
	if !reduced {
		for i, v := range got.Data {
			if v != ref.Data[i] {
				t.Fatalf("%s aerial differs at %d: %v vs %v", label, i, v, ref.Data[i])
			}
		}
		return
	}
	var num, den float64
	for i, v := range got.Data {
		d := v - ref.Data[i]
		num += d * d
		den += ref.Data[i] * ref.Data[i]
	}
	if e := math.Sqrt(num / den); e > 1e-12 {
		t.Fatalf("%s aerial relative error %.3g > 1e-12", label, e)
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
