// Command pw runs a full process-window (focus-exposure matrix)
// analysis: Bossung CD data and window yield for a benchmark design or
// an optimized mask PGM.
//
// Usage:
//
//	pw -case B5 -cut 237,175,v -preset fast
//	pw -case B4 -mask mask.pgm -cut 256,256,h -target-cd 80
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"lsopc"
	"lsopc/internal/render"
)

func main() {
	var (
		caseID    = flag.String("case", "B5", "benchmark id (B1…B10)")
		glpPath   = flag.String("glp", "", "analyse a GLP layout instead of a benchmark")
		maskPath  = flag.String("mask", "", "mask PGM to analyse (default: the design itself)")
		presetStr = flag.String("preset", "fast", "simulation preset: test|fast|paper")
		cutStr    = flag.String("cut", "", "CD cut as x,y,h|v in pixels (default: grid centre, horizontal)")
		targetCD  = flag.Float64("target-cd", 0, "drawn CD in nm for yield (default: nominal measured CD)")
		tol       = flag.Float64("tol", 0.10, "CD tolerance fraction for the window yield")
	)
	flag.Parse()
	if err := run(*caseID, *glpPath, *maskPath, *presetStr, *cutStr, *targetCD, *tol); err != nil {
		fmt.Fprintln(os.Stderr, "pw:", err)
		os.Exit(1)
	}
}

func run(caseID, glpPath, maskPath, presetStr, cutStr string, targetCD, tol float64) error {
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

	mask, err := pipe.Target(layout)
	if err != nil {
		return err
	}
	if maskPath != "" {
		loaded, err := render.LoadPGM(maskPath)
		if err != nil {
			return err
		}
		bin := lsopc.NewField(loaded.W, loaded.H)
		bin.Binarize(loaded)
		mask = bin
	}

	cut, err := parseCut(cutStr, pipe.GridSize())
	if err != nil {
		return err
	}
	res, err := pipe.ProcessWindow(mask, cut)
	if err != nil {
		return err
	}

	fmt.Printf("process window of %s (%s preset), cut at (%d,%d) %s\n",
		layout.Name, preset, cut.X, cut.Y, orientation(cut))
	printBossung(res)
	ref := targetCD
	if ref == 0 {
		ref = res.TargetCD
	}
	fmt.Printf("nominal CD %.0f nm; window yield (±%.0f%% of %.0f nm): %.0f%%\n",
		res.TargetCD, tol*100, ref, 100*res.WindowYield(ref, tol))
	return nil
}

func parseCut(s string, gridSize int) (lsopc.CutLine, error) {
	if s == "" {
		return lsopc.CutLine{X: gridSize / 2, Y: gridSize / 2, Horizontal: true}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return lsopc.CutLine{}, fmt.Errorf("cut must be x,y,h|v, got %q", s)
	}
	x, err := strconv.Atoi(parts[0])
	if err != nil {
		return lsopc.CutLine{}, fmt.Errorf("bad cut x %q", parts[0])
	}
	y, err := strconv.Atoi(parts[1])
	if err != nil {
		return lsopc.CutLine{}, fmt.Errorf("bad cut y %q", parts[1])
	}
	switch parts[2] {
	case "h":
		return lsopc.CutLine{X: x, Y: y, Horizontal: true}, nil
	case "v":
		return lsopc.CutLine{X: x, Y: y, Horizontal: false}, nil
	}
	return lsopc.CutLine{}, fmt.Errorf("cut orientation must be h or v, got %q", parts[2])
}

func orientation(c lsopc.CutLine) string {
	if c.Horizontal {
		return "horizontal"
	}
	return "vertical"
}

func printBossung(res *lsopc.ProcessWindowResult) {
	byDose := res.Bossung()
	doses := make([]float64, 0, len(byDose))
	for d := range byDose {
		doses = append(doses, d)
	}
	sort.Float64s(doses)
	fmt.Printf("%-10s", "dose\\focus")
	for _, p := range byDose[doses[0]] {
		fmt.Printf(" %6.0fnm", p.DefocusNM)
	}
	fmt.Println()
	for _, d := range doses {
		fmt.Printf("%-10.2f", d)
		for _, p := range byDose[d] {
			fmt.Printf(" %6.0fnm", p.CDNM)
		}
		fmt.Println()
	}
}
