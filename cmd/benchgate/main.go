// Command benchgate runs the repository's two A/B speed gates and exits
// 1 when either breaks its bound:
//
//   - coarse-to-fine: Table II case B4 at PresetTest, 10 iterations,
//     full resolution vs MultiResFactor 2; multires must take at most
//     baseline × (1 + multiresBound);
//   - tiling: the sparse 4×4 cell-array chip, one chip-spanning
//     monolithic window vs OptimizeTiled; tiled must take at most
//     monolithic × (1 + tiledBound).
//
// Usage:
//
//	go run ./cmd/benchgate
//
// Each side of a pair is timed by one testing.Benchmark, so ns/op
// matches `go test -bench` output, and the two sides run back to back.
// Quality parity is held by tests, not here:
// TestMultiResMatchesBaselineQuality and TestTiledMatchesMonolithic.
package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"lsopc"
	"lsopc/internal/layouts"
)

const (
	// multiresBound is the noise allowance on "coarse-to-fine is no
	// slower than full resolution".
	multiresBound = 0.10
	// tiledBound is the ≥ 0.6·N tiled speedup bound at N = 1 worker
	// (tiled ≤ monolithic/0.6), so on an N-worker host the gate only
	// gets easier to clear.
	tiledBound = 0.67
)

// maxIter matches the root BenchmarkTable2PerCase.
const maxIter = 10

// side is one timed half of a pair: run is timed on a pipeline built by
// newPipe, which is released once the side is timed.
type side struct {
	label   string
	newPipe func() (*lsopc.Pipeline, error)
	run     func(*lsopc.Pipeline) error
}

// pair is one gate: variant must take at most base × (1 + bound).
type pair struct {
	name          string
	bound         float64
	base, variant side
}

func main() {
	failed := false
	for _, build := range []func() (pair, error){multiresPair, tiledPair} {
		p, err := build()
		if err != nil {
			fatal(err)
		}
		baseNs, err := timeSide(p.base)
		if err != nil {
			fatal(err)
		}
		variantNs, err := timeSide(p.variant)
		if err != nil {
			fatal(err)
		}
		result := "ok"
		if !verdict(baseNs, variantNs, p.bound) {
			result = "REGRESSION"
			failed = true
		}
		fmt.Printf("benchgate: %s: %s %.1f ms, %s %.1f ms, ratio %.3f, bound %.2f: %s\n",
			p.name, p.base.label, float64(baseNs)/1e6, p.variant.label, float64(variantNs)/1e6,
			float64(variantNs)/float64(baseNs), 1+p.bound, result)
	}
	if failed {
		os.Exit(1)
	}
}

// verdict reports whether a variant passes its gate: it regresses only
// when it takes longer than base × (1 + bound), so equality passes.
func verdict(baseNs, variantNs int64, bound float64) bool {
	return !(float64(variantNs) > float64(baseNs)*(1+bound))
}

// timeSide times s with one testing.Benchmark on a pipeline of its own,
// then releases the pipeline and collects the heap, so each timed side
// runs with only its own pipeline resident (a chip-spanning bank plus a
// tile bank at once would distort both via GC pressure).
func timeSide(s side) (int64, error) {
	pipe, err := s.newPipe()
	if err != nil {
		return 0, err
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if runErr = s.run(pipe); runErr != nil {
				b.FailNow()
			}
		}
	})
	pipe.Release()
	runtime.GC()
	if runErr != nil {
		return 0, fmt.Errorf("%s: %w", s.label, runErr)
	}
	return r.NsPerOp(), nil
}

// multiresPair times B4 at full resolution (float64) and coarse-to-fine
// at factor 2 (float64).
func multiresPair() (pair, error) {
	newPipe := func() (*lsopc.Pipeline, error) {
		return lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	}
	baseOpts := lsopc.DefaultLevelSetOptions()
	baseOpts.MaxIter = maxIter
	multiOpts := baseOpts
	multiOpts.MultiResFactor = 2

	clip := lsopc.Benchmark("B4")
	optimize := func(opts lsopc.LevelSetOptions) func(*lsopc.Pipeline) error {
		return func(p *lsopc.Pipeline) error {
			_, err := p.OptimizeLevelSet(clip, opts)
			return err
		}
	}
	return pair{
		name:    "multires B4",
		bound:   multiresBound,
		base:    side{"baseline", newPipe, optimize(baseOpts)},
		variant: side{"multires", newPipe, optimize(multiOpts)},
	}, nil
}

// tiledPair times full-chip optimization on the same composed cell-array
// chip in one monolithic window (a custom pipeline whose grid covers the
// chip) and tiled into PresetTest-sized windows with an overlap halo and
// stitched seams. The chip is sparse (25% cell occupancy, like real
// designs): that is where tiling wins even on one worker, because its
// work scales with the occupied windows — empty tiles are skipped —
// while the monolithic window pays full-grid FFTs for the whole canvas.
// Worker fan-out across tiles stacks on top of that on multi-core hosts.
func tiledPair() (pair, error) {
	const (
		pitchNM = 16
		kernels = 4 // PresetTest optics
	)

	eng := lsopc.GPUEngine()
	// 4x4 cell array, 4 occupied slots scattered across it (the cycle
	// places B1/B4 at (0,0), (1,1), (0,2) and (1,3)).
	chip, err := layouts.Chip(4, 4, []string{"B1", "-", "-", "-", "-", "B4", "-", "-"})
	if err != nil {
		return pair{}, err
	}

	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = maxIter
	topts := lsopc.TileOptions{
		HaloNM:       256,
		Core:         opts,
		StitchPasses: 2,
		StitchIters:  4,
	}
	// PresetTest windows (128 px = 2048 nm) over the chip.
	tilePipe := func() (*lsopc.Pipeline, error) { return lsopc.NewPipeline(lsopc.PresetTest, eng) }
	tiled := func(p *lsopc.Pipeline) error {
		_, err := p.OptimizeTiled(chip, topts)
		return err
	}

	// One un-timed tiled run up front: verifies the decomposition is a
	// real multi-tile problem and reports its shape.
	probePipe, err := tilePipe()
	if err != nil {
		return pair{}, err
	}
	probe, err := probePipe.OptimizeTiled(chip, topts)
	probePipe.Release()
	runtime.GC()
	if err != nil {
		return pair{}, err
	}
	if len(probe.Grid.Tiles) < 4 {
		return pair{}, fmt.Errorf("chip decomposes into %d tiles, want >= 4", len(probe.Grid.Tiles))
	}
	occupied := 0
	for _, st := range probe.Tiles {
		if !st.Empty {
			occupied++
		}
	}
	fmt.Printf("benchgate: %s: %dx%d nm, %dx%d tiles / %d non-empty (window %d nm, halo %d nm), %d workers\n",
		chip.Name, chip.W, chip.H, probe.Grid.NX, probe.Grid.NY, occupied,
		probe.Grid.WindowNM, probe.Grid.HaloNM, probe.Workers)

	return pair{
		name:  "tiled " + chip.Name,
		bound: tiledBound,
		base: side{"monolithic", func() (*lsopc.Pipeline, error) {
			// One window spanning the whole chip.
			return lsopc.NewCustomPipeline(chip.W/pitchNM, pitchNM, kernels, eng)
		}, func(p *lsopc.Pipeline) error {
			_, err := p.OptimizeLevelSet(chip, opts)
			return err
		}},
		variant: side{"tiled", tilePipe, tiled},
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
