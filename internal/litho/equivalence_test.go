package litho

import (
	"fmt"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// eqRand is a deterministic LCG so the random mask is identical across
// runs and Go versions.
type eqRand uint64

func (r *eqRand) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

// randomMask returns a smooth pseudo-random mask in [0,1]: random pixels
// would exercise nothing but noise; a blocky random pattern resembles a
// real layout.
func randomMask(n int, seed uint64) *grid.Field {
	r := eqRand(seed)
	m := grid.NewField(n, n)
	const block = 8
	for by := 0; by < n; by += block {
		for bx := 0; bx < n; bx += block {
			v := 0.0
			if r.next() > 0.5 {
				v = 1
			}
			for y := by; y < by+block && y < n; y++ {
				for x := bx; x < bx+block && x < n; x++ {
					m.Set(x, y, v)
				}
			}
		}
	}
	return m
}

// eqSim builds the test simulator for grid g on the given engine.
func eqSim(t *testing.T, eng *engine.Engine, g warmGrid, kernels int) *Simulator {
	t.Helper()
	cfg := DefaultConfig(g.n, g.pixelNM)
	cfg.Optics.Kernels = kernels
	s, err := NewSimulator(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fieldsEqual(t *testing.T, what string, a, b *grid.Field) {
	t.Helper()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: pixel %d = %v vs %v (must be bit-identical)", what, i, a.Data[i], b.Data[i])
		}
	}
}

func cfieldsEqual(t *testing.T, what string, a, b *grid.CField) {
	t.Helper()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: bin %d = %v vs %v (must be bit-identical)", what, i, a.Data[i], b.Data[i])
		}
	}
}

// TestEngineEquivalence is the package's determinism contract: the
// serial CPU engine and parallel engines of several worker counts
// (GPU() collapses to one worker on single-core hosts, so explicit
// counts are used) must produce bit-identical spectra, aerial images,
// resist images, printed masks, gradients, and costs on a random mask,
// with the per-kernel fields on the full grid and on a reduced one.
func TestEngineEquivalence(t *testing.T) {
	for _, g := range warmGrids {
		engineEquivalence(t, g)
	}
}

func engineEquivalence(t *testing.T, g warmGrid) {
	const kernels = 4
	n := g.n
	mask := randomMask(n, 42)
	target := randomMask(n, 99)

	type result struct {
		spec     *grid.CField
		aerial   *grid.Field
		fast     *grid.Field
		resist   *grid.Field
		printed  *grid.Field
		grad     *grid.Field
		cost     float64
		gradCost *grid.Field // gradient from Forward+GradientInto (unfused)
	}

	run := func(eng *engine.Engine) result {
		s := eqSim(t, eng, g, kernels)
		assertReduced(t, s, g.reduced)
		var res result
		res.spec = grid.NewCField(n, n)
		s.MaskSpectrumInto(res.spec, mask)

		res.aerial = grid.NewField(n, n)
		s.Aerial(res.aerial, res.spec, Outer)

		res.fast = grid.NewField(n, n)
		s.AerialFast(res.fast, res.spec, Inner)

		res.resist = grid.NewField(n, n)
		res.resist.Sigmoid(res.aerial, s.cfg.Steepness, s.cfg.Threshold)

		res.printed = grid.NewField(n, n)
		s.PrintedBinary(res.printed, res.spec, Nominal)

		out := NewCornerImages(n)
		res.grad = grid.NewField(n, n)
		res.cost = s.ForwardAndGradient(res.grad, res.spec, Inner, target, out, 0.7)

		// Unfused path on a fresh simulator for the same corner.
		s2 := eqSim(t, eng, g, kernels)
		out2 := NewCornerImages(n)
		s2.Forward(out2, res.spec, Inner)
		res.gradCost = grid.NewField(n, n)
		s2.GradientInto(res.gradCost, res.spec, Inner, target, out2.R, 0.7)
		return res
	}

	ref := run(engine.CPU())
	for _, workers := range []int{2, 3, 8} {
		eng := engine.New("gpu-test", workers)
		got := run(eng)
		label := fmt.Sprintf("%d px %s", n, eng)
		cfieldsEqual(t, label+" mask spectrum", got.spec, ref.spec)
		fieldsEqual(t, label+" aerial", got.aerial, ref.aerial)
		fieldsEqual(t, label+" fast aerial", got.fast, ref.fast)
		fieldsEqual(t, label+" resist", got.resist, ref.resist)
		fieldsEqual(t, label+" printed", got.printed, ref.printed)
		fieldsEqual(t, label+" gradient", got.grad, ref.grad)
		if got.cost != ref.cost {
			t.Fatalf("%s cost = %v vs %v", label, got.cost, ref.cost)
		}
		fieldsEqual(t, label+" unfused gradient", got.gradCost, ref.gradCost)
	}

	// The fused and unfused pipelines must agree bitwise as well: both
	// accumulate the same per-kernel terms in the same order.
	fieldsEqual(t, "fused vs unfused gradient", ref.grad, ref.gradCost)
}
