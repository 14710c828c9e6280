package lsopc_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"lsopc"
)

// ExampleNewPipeline shows the minimal optimize-and-evaluate flow.
func ExampleNewPipeline() {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		log.Fatal(err)
	}
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = 5
	run, err := pipe.OptimizeLevelSet(lsopc.Benchmark("B10"), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(run.Method, "shape violations:", run.Report.ShapeViolations)
	// Output: level-set shape violations: 0
}

// ExamplePipeline_OptimizeBaseline runs a pixel-based comparison method.
func ExamplePipeline_OptimizeBaseline() {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, nil)
	if err != nil {
		log.Fatal(err)
	}
	opts := lsopc.DefaultBaselineOptions(lsopc.MosaicFast)
	opts.MaxIter = 6
	run, err := pipe.OptimizeBaseline(lsopc.Benchmark("B10"), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(run.Method, "shape violations:", run.Report.ShapeViolations)
	// Output: MOSAIC_fast shape violations: 0
}

// cancelAt cancels a run once its iteration event numbered at arrives.
type cancelAt struct {
	at     int
	cancel context.CancelFunc
}

func (c cancelAt) Emit(e lsopc.TraceEvent) {
	if e.Type == lsopc.EventIteration && e.Iter == c.at {
		c.cancel()
	}
}

// ExamplePipeline_OptimizeLevelSetContext cancels a run and resumes it
// from the checkpoint its error carries.
func ExamplePipeline_OptimizeLevelSetContext() {
	// A stand-in for the user's Ctrl-C: cancel once iteration 2 is done.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine(),
		lsopc.WithTraceSink(cancelAt{at: 2, cancel: cancel}))
	if err != nil {
		log.Fatal(err)
	}
	layout := lsopc.Benchmark("B10")
	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = 6
	opts.Tolerance = 0

	_, err = pipe.OptimizeLevelSetContext(ctx, layout, opts, nil)
	var cerr *lsopc.CancelledError
	if !errors.As(err, &cerr) {
		log.Fatal(err)
	}
	fmt.Println("cancelled after", cerr.Checkpoint.Iter, "iterations")

	// The same entry point with the same options continues the run; the
	// result is bit-identical to an uninterrupted one.
	run, err := pipe.OptimizeLevelSetContext(context.Background(), layout, opts, cerr.Checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("resumed to", run.LevelSet.Iterations, "iterations")
	// Output:
	// cancelled after 3 iterations
	// resumed to 6 iterations
}

// ExampleNewLayout builds a custom design and validates it.
func ExampleNewLayout() {
	l := lsopc.NewLayout("demo", 2048, 2048)
	l.Rects = append(l.Rects, lsopc.NewRect(500, 500, 700, 1100))
	l.Polys = append(l.Polys, lsopc.NewPolygon(
		lsopc.Point{X: 900, Y: 500}, lsopc.Point{X: 1300, Y: 500},
		lsopc.Point{X: 1300, Y: 580}, lsopc.Point{X: 980, Y: 580},
		lsopc.Point{X: 980, Y: 1100}, lsopc.Point{X: 900, Y: 1100},
	))
	if err := l.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(l.ShapeCount(), "shapes,", l.Area(), "nm²")
	// Output: 2 shapes, 193600 nm²
}

// ExampleBenchmarks lists the reproduction suite.
func ExampleBenchmarks() {
	for _, s := range lsopc.Benchmarks()[:3] {
		fmt.Println(s.ID, s.PatternArea)
	}
	// Output:
	// B1 215344
	// B2 169280
	// B3 213504
}
