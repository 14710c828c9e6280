package main

import (
	"fmt"
	"os"
	"runtime"

	"lsopc"
	"lsopc/internal/layouts"
)

// tiledMain measures full-chip optimization wall time monolithic vs
// tiled on the same composed cell-array chip, writing both into one
// artefact under the fixed labels "monolithic" and "tiled". The
// monolithic variant simulates the whole chip in one window (a custom
// pipeline whose grid covers the chip); the tiled variant decomposes it
// into PresetTest-sized windows with an overlap halo and stitches the
// seams. The chip is sparse (25% cell occupancy, like real designs):
// that is where tiling wins even on one worker, because its work
// scales with the occupied windows — empty tiles are skipped — while
// the monolithic window pays full-grid FFTs for the whole canvas.
// Worker fan-out across tiles stacks on top of that on multi-core
// hosts. The same file then gates the scaling win:
//
//	benchdiff -old-labels monolithic -new-labels tiled \
//	    BENCH_tiled.json BENCH_tiled.json
//
// Quality parity between the two paths is enforced separately by
// TestTiledMatchesMonolithic (EPE/PVB on B1).
func tiledMain(out, filter string) error {
	const (
		maxIter = 10 // matches the root BenchmarkTable2PerCase
		pitchNM = 16
		kernels = 4 // PresetTest optics
	)

	eng := lsopc.GPUEngine()
	// 4x4 cell array, 4 occupied slots scattered across it (the cycle
	// places B1/B4 at (0,0), (1,1), (0,2) and (1,3)).
	chip, err := layouts.Chip(4, 4, []string{"B1", "-", "-", "-", "-", "B4", "-", "-"})
	if err != nil {
		return err
	}

	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = maxIter
	topts := lsopc.TileOptions{
		HaloNM:       256,
		Core:         opts,
		StitchPasses: 2,
		StitchIters:  4,
	}

	// One un-timed tiled run up front: verifies the decomposition is a
	// real multi-tile problem and captures its shape for the run notes.
	// Every pipeline, the probe's included, is released (and the heap
	// collected) before the next is built, so each timed variant runs
	// with only its own pipeline resident (a chip-spanning bank plus a
	// tile bank at once would distort both via GC pressure).
	probePipe, err := lsopc.NewPipeline(lsopc.PresetTest, eng)
	if err != nil {
		return err
	}
	probe, err := probePipe.OptimizeTiled(chip, topts)
	probePipe.Release()
	if err != nil {
		return err
	}
	if len(probe.Grid.Tiles) < 4 {
		return fmt.Errorf("chip decomposes into %d tiles, want >= 4", len(probe.Grid.Tiles))
	}
	occupied := 0
	for _, st := range probe.Tiles {
		if !st.Empty {
			occupied++
		}
	}
	shape := fmt.Sprintf("%s: %dx%d nm, %dx%d tiles / %d non-empty (window %d nm, halo %d nm), %d workers",
		chip.Name, chip.W, chip.H, probe.Grid.NX, probe.Grid.NY, occupied,
		probe.Grid.WindowNM, probe.Grid.HaloNM, probe.Workers)
	fmt.Fprintln(os.Stderr, shape)

	// Each variant builds its own pipeline for the case and releases it
	// (then collects the heap) once the case is timed.
	release := func(p *lsopc.Pipeline) func() { return func() { p.Release(); runtime.GC() } }
	return runAB(out,
		"Full-chip optimization wall time (10 iterations) on a sparse 4x4 cell-array chip (4 occupied slots, like real designs): one monolithic chip-spanning simulation window vs parallel tiled optimization with overlap-halo stitching (window = PresetTest grid, empty tiles skipped). Seam quality parity is enforced by TestTiledMatchesMonolithic; this artefact locks in the tiled scaling via cmd/benchdiff (-old-labels monolithic -new-labels tiled).",
		filter, []string{"FullChip/" + chip.Name}, [2]variant{
			{"monolithic", "one chip-spanning window; " + shape, func(string) (func() error, func(), error) {
				// One window spanning the whole chip.
				mono, err := lsopc.NewCustomPipeline(chip.W/pitchNM, pitchNM, kernels, eng)
				if err != nil {
					return nil, nil, err
				}
				return func() error {
					_, err := mono.OptimizeLevelSet(chip, opts)
					return err
				}, release(mono), nil
			}},
			{"tiled", "OptimizeTiled with overlap-halo stitching; " + shape, func(string) (func() error, func(), error) {
				// PresetTest windows (128 px = 2048 nm) over the chip.
				tiledPipe, err := lsopc.NewPipeline(lsopc.PresetTest, eng)
				if err != nil {
					return nil, nil, err
				}
				return func() error {
					_, err := tiledPipe.OptimizeTiled(chip, topts)
					return err
				}, release(tiledPipe), nil
			}},
		})
}
