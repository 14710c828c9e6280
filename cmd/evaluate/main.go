// Command evaluate measures a mask image against a target layout with
// the ICCAD 2013 contest checkers (#EPE, PV band, shape violations,
// score).
//
// Usage:
//
//	evaluate -case B4 -mask mask.pgm -preset fast
//	evaluate -glp design.glp -mask mask.pgm -rt 123  # score with a given runtime
//	evaluate -case B4                                 # evaluate the raw design itself
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lsopc"
	"lsopc/internal/render"
)

func main() {
	var (
		caseID    = flag.String("case", "B4", "benchmark id (B1…B10); ignored when -glp is set")
		glpPath   = flag.String("glp", "", "evaluate against a GLP layout file")
		maskPath  = flag.String("mask", "", "mask PGM to evaluate (default: the design itself)")
		presetStr = flag.String("preset", "fast", "simulation preset: test|fast|paper")
		rtSec     = flag.Float64("rt", 0, "runtime seconds to include in the score")
	)
	flag.Parse()

	if err := run(*caseID, *glpPath, *maskPath, *presetStr, *rtSec); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

func run(caseID, glpPath, maskPath, presetStr string, rtSec float64) error {
	preset, err := lsopc.ParsePreset(presetStr)
	if err != nil {
		return err
	}
	pipe, err := lsopc.NewPipeline(preset, lsopc.GPUEngine())
	if err != nil {
		return err
	}

	var layout *lsopc.Layout
	if glpPath != "" {
		layout, err = lsopc.LoadGLP(glpPath)
	} else {
		layout, err = lsopc.BenchmarkByID(caseID)
	}
	if err != nil {
		return err
	}

	var mask *lsopc.Field
	if maskPath != "" {
		loaded, err := render.LoadPGM(maskPath)
		if err != nil {
			return err
		}
		bin := &lsopc.Field{W: loaded.W, H: loaded.H, Data: make([]float64, len(loaded.Data))}
		bin.Binarize(loaded)
		mask = bin
	} else {
		mask, err = pipe.Target(layout)
		if err != nil {
			return err
		}
		fmt.Println("no -mask given: evaluating the unoptimized design")
	}

	report, err := pipe.Evaluate(layout, mask, time.Duration(rtSec*float64(time.Second)))
	if err != nil {
		return err
	}
	fmt.Printf("layout %s (area %d nm²), preset %s\n", layout.Name, layout.Area(), preset)
	fmt.Println(report)
	return nil
}
