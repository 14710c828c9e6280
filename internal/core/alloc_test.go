package core

import (
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/solve"
)

// allocOpts returns an option set whose steady-state iteration touches
// no allocating side channel: no snapshots (clones the mask), and an
// iteration budget big enough that the pre-sized history slice never
// regrows.
func allocOpts(budget int) Options {
	opts := DefaultOptions()
	opts.MaxIter = budget
	opts.SnapshotEvery = 0
	opts.Tolerance = 0 // never converge inside the measured window
	return opts
}

// warmDriver builds an optimizer mid-run: the solve driver constructed
// and one step taken, so every lazily-reached path is already warm.
func warmDriver(t testing.TB, sim *litho.Simulator, target *grid.Field, budget int) (*Optimizer, *solve.Driver) {
	o, err := newOptimizer(sim, target, allocOpts(budget), true)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := o.driver()
	if err != nil {
		t.Fatal(err)
	}
	drv.Step()
	return o, drv
}

// TestIterationZeroAllocWarm pins the steady-state iteration at zero
// allocations on engines of 1, 2 and 3 workers. The measured steps are
// iterations 1–21, so they include the reinitialisations after
// iterations 9 and 19 (the EDT's scratch is allocated once, by
// newOptimizer).
func TestIterationZeroAllocWarm(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		sim := newTestSimOn(t, 4, engine.New("warm", workers))
		o, drv := warmDriver(t, sim, crossTarget(64), 1000)
		steps, reinits := 1, 0 // warmDriver took the first step
		if avg := testing.AllocsPerRun(20, func() {
			drv.Step()
			if steps++; steps%reinitEvery == 0 {
				reinits++
			}
		}); avg != 0 {
			t.Fatalf("%d workers: warm level-set iteration allocates %.1f objects/op, want 0", workers, avg)
		}
		if reinits < 2 {
			t.Fatalf("%d workers: the measured steps reached %d reinitialisations, want 2", workers, reinits)
		}
		o.Release()
	}
}

func BenchmarkLevelSetIteration(b *testing.B) {
	sim := newTestSimB(b, 8)
	o, drv := warmDriver(b, sim, crossTarget(64), b.N+2)
	defer o.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Step()
	}
}

// newTestSimB mirrors newTestSim for benchmarks.
func newTestSimB(b *testing.B, kernels int) *litho.Simulator {
	b.Helper()
	cfg := litho.DefaultConfig(64, 32)
	cfg.Optics.Kernels = kernels
	s, err := litho.NewSimulator(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
