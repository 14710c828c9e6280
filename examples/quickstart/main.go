// Quickstart: optimize one ICCAD-2013-style benchmark with the paper's
// level-set method and print the contest metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lsopc"
)

func main() {
	// A pipeline bundles the lithography simulator (193 nm immersion,
	// 24-kernel-style SOCS model) with the contest metric checkers.
	// PresetTest keeps this demo under a few seconds; use PresetFast or
	// PresetPaper for real runs.
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		log.Fatal(err)
	}

	// B4 is the smallest benchmark: three isolated vertical bars.
	layout := lsopc.Benchmark("B4")
	fmt.Printf("optimizing %s: %d shapes, %d nm² pattern area\n",
		layout.Name, layout.ShapeCount(), layout.Area())

	// Algorithm 1 of the paper: level-set evolution with the
	// process-variation cost and PRP conjugate-gradient velocity.
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = 15
	run, err := pipe.OptimizeLevelSet(layout, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("finished in %v after %d iterations\n",
		run.Elapsed.Round(1e6), run.Iterations)
	fmt.Println("optimized: ", run.Report)

	// Compare with the unoptimized design (mask = target).
	target, err := pipe.Target(layout)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := pipe.Evaluate(layout, target, run.Elapsed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unoptimized:", raw)
	fmt.Printf("score improvement: %.0f → %.0f\n", raw.Score(), run.Report.Score())
}
