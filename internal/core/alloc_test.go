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
// regrows. reinitEvery sets the pixel-exact reinitialisation period
// (0 disables it); the sub-pixel FMM reinit returns a new ψ and is not
// covered.
func allocOpts(budget, reinitEvery int) Options {
	opts := DefaultOptions()
	opts.MaxIter = budget
	opts.ReinitEvery = reinitEvery
	opts.SnapshotEvery = 0
	opts.Tolerance = 0 // never converge inside the measured window
	return opts
}

// warmDriver builds an optimizer mid-run: the solve driver constructed
// and one step taken, so every lazily-reached path is already warm.
func warmDriver(t testing.TB, sim *litho.Simulator, target *grid.Field, budget, reinitEvery int) (*Optimizer, *solve.Driver) {
	o, err := New(sim, target, allocOpts(budget, reinitEvery))
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
// allocations, without reinitialisation and with a pixel-exact reinit
// every second iteration (the EDT's scratch is allocated once, by New),
// on engines of 1, 2 and 3 workers.
func TestIterationZeroAllocWarm(t *testing.T) {
	for _, reinitEvery := range []int{0, 2} {
		for _, workers := range []int{1, 2, 3} {
			sim := newTestSimOn(t, 4, engine.New("warm", workers))
			o, drv := warmDriver(t, sim, crossTarget(64), 1000, reinitEvery)
			if avg := testing.AllocsPerRun(20, func() {
				drv.Step()
			}); avg != 0 {
				t.Fatalf("ReinitEvery=%d, %d workers: warm level-set iteration allocates %.1f objects/op, want 0", reinitEvery, workers, avg)
			}
			o.Release()
		}
	}
}

func BenchmarkLevelSetIteration(b *testing.B) {
	sim := newTestSimB(b, 8)
	o, drv := warmDriver(b, sim, crossTarget(64), b.N+2, 0)
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
