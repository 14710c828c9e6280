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
// regrows. reinitEvery sets the reinitialisation period (0 disables
// it), subpixel picks the FMM reinit over the pixel-exact EDT.
func allocOpts(budget, reinitEvery int, subpixel bool) Options {
	opts := DefaultOptions()
	opts.MaxIter = budget
	opts.ReinitEvery = reinitEvery
	opts.SubpixelReinit = subpixel
	opts.SnapshotEvery = 0
	opts.Tolerance = 0 // never converge inside the measured window
	return opts
}

// warmDriver builds an optimizer mid-run: the solve driver constructed
// and one step taken, so every lazily-reached path is already warm.
func warmDriver(t testing.TB, sim *litho.Simulator, target *grid.Field, budget, reinitEvery int, subpixel bool) (*Optimizer, *solve.Driver) {
	o, err := New(sim, target, allocOpts(budget, reinitEvery, subpixel))
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
// allocations, without reinitialisation and with a pixel-exact or a
// sub-pixel reinit every second iteration (the EDT's and the FMM's
// scratch are allocated once, by New), on engines of 1, 2 and 3 workers.
func TestIterationZeroAllocWarm(t *testing.T) {
	for _, reinit := range []struct {
		every    int
		subpixel bool
	}{{0, false}, {2, false}, {2, true}} {
		for _, workers := range []int{1, 2, 3} {
			sim := newTestSimOn(t, 4, engine.New("warm", workers))
			o, drv := warmDriver(t, sim, crossTarget(64), 1000, reinit.every, reinit.subpixel)
			if avg := testing.AllocsPerRun(20, func() {
				drv.Step()
			}); avg != 0 {
				t.Fatalf("ReinitEvery=%d SubpixelReinit=%v, %d workers: warm level-set iteration allocates %.1f objects/op, want 0",
					reinit.every, reinit.subpixel, workers, avg)
			}
			o.Release()
		}
	}
}

func BenchmarkLevelSetIteration(b *testing.B) {
	sim := newTestSimB(b, 8)
	o, drv := warmDriver(b, sim, crossTarget(64), b.N+2, 0, false)
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
