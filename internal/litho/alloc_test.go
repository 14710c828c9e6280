package litho

import (
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// Allocation regression gate for the session runtime: once a session is
// warm, the forward simulation and the fused forward+adjoint must not
// touch the heap. All scratch is leased at session construction, every
// engine body is pre-bound, and an engine call reuses its task
// descriptor on the process-wide helper set, so the steady state is
// pure compute on every engine. Each test runs on engines of 1, 2 and
// 3 workers.

// allocWorkers are the engine widths of the warm zero-alloc tests.
var allocWorkers = []int{1, 2, 3}

// warmGrid is one simulation grid of the warm zero-alloc tests.
type warmGrid struct {
	n       int
	pixelNM float64
	reduced bool // per-kernel fields on a grid smaller than n
}

// warmGrids covers both per-kernel paths: the full grid (64 px / 32 nm)
// and the reduced one (128 px / 8 nm, m = 64).
var warmGrids = []warmGrid{{n: 64, pixelNM: 32}, {n: 128, pixelNM: 8, reduced: true}}

// warmSim returns a 64-px simulator on a serial engine that has run
// each measured path once, so lazily-leased scratch (the kernel batch)
// is in place.
func warmSim(t testing.TB, kernels int) (*Simulator, *grid.CField, *CornerImages, *grid.Field) {
	return warmSimAt(t, warmGrids[0], kernels, 1)
}

// warmSimAt is warmSim on the given grid and an engine of the given
// worker count.
func warmSimAt(t testing.TB, g warmGrid, kernels, workers int) (*Simulator, *grid.CField, *CornerImages, *grid.Field) {
	cfg := DefaultConfig(g.n, g.pixelNM)
	cfg.Optics.Kernels = kernels
	s, err := NewSimulator(cfg, engine.New("warm", workers))
	if err != nil {
		t.Fatal(err)
	}
	assertReduced(t, s, g.reduced)
	n := s.GridSize()
	mask := centeredRectMask(n, 24, 12)
	spec := s.MaskSpectrum(mask)
	imgs := NewCornerImages(n)
	grad := grid.NewField(n, n)
	target := centeredRectMask(n, 24, 12)
	for _, cond := range []Condition{Nominal, Outer, Inner} {
		s.Forward(imgs, spec, cond)
		s.ForwardAndGradient(grad, spec, cond, target, imgs, 1)
	}
	s.PrintedBinary(imgs.Aerial, spec, Nominal)
	return s, spec, imgs, target
}

func TestSimulateZeroAllocWarm(t *testing.T) {
	for _, w := range allocWorkers {
		s, spec, imgs, _ := warmSimAt(t, warmGrids[0], 4, w)
		if avg := testing.AllocsPerRun(20, func() {
			s.Forward(imgs, spec, Nominal)
			s.Forward(imgs, spec, Outer)
			s.Forward(imgs, spec, Inner)
		}); avg != 0 {
			t.Fatalf("%d workers: warm Forward allocates %.1f objects/op, want 0", w, avg)
		}
	}
}

func TestForwardAndGradientZeroAllocWarm(t *testing.T) {
	for _, w := range allocWorkers {
		s, spec, imgs, target := warmSimAt(t, warmGrids[0], 4, w)
		n := s.GridSize()
		grad := grid.NewField(n, n)
		if avg := testing.AllocsPerRun(20, func() {
			grad.Zero()
			s.ForwardAndGradient(grad, spec, Nominal, target, imgs, 1)
		}); avg != 0 {
			t.Fatalf("%d workers: warm ForwardAndGradient allocates %.1f objects/op, want 0", w, avg)
		}
	}
}

func TestMaskSpectrumIntoZeroAllocWarm(t *testing.T) {
	for _, w := range allocWorkers {
		s, spec, _, target := warmSimAt(t, warmGrids[0], 4, w)
		if avg := testing.AllocsPerRun(20, func() {
			s.MaskSpectrumInto(spec, target)
		}); avg != 0 {
			t.Fatalf("%d workers: warm MaskSpectrumInto allocates %.1f objects/op, want 0", w, avg)
		}
	}
}

func BenchmarkSimulateWarm(b *testing.B) {
	s, spec, imgs, _ := warmSim(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forward(imgs, spec, Nominal)
	}
}

func BenchmarkForwardAndGradientWarm(b *testing.B) {
	s, spec, imgs, target := warmSim(b, 8)
	grad := grid.NewField(s.GridSize(), s.GridSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad.Zero()
		s.ForwardAndGradient(grad, spec, Nominal, target, imgs, 1)
	}
}

func TestAerialZeroAllocWarm(t *testing.T) {
	for _, w := range allocWorkers {
		s, spec, imgs, _ := warmSimAt(t, warmGrids[0], 4, w)
		if avg := testing.AllocsPerRun(20, func() {
			s.Aerial(imgs.Aerial, spec, Inner)
			s.PrintedBinary(imgs.R, spec, Outer)
		}); avg != 0 {
			t.Fatalf("%d workers: warm Aerial/PrintedBinary allocate %.1f objects/op, want 0", w, avg)
		}
	}
}
