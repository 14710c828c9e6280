// Command tables regenerates the paper's evaluation artefacts: Table I
// (quality comparison), Table II (runtime comparison), the Fig. 1/Fig. 2
// data, and the ablation studies.
//
// Usage:
//
//	tables -table 1 -preset fast            # Table I on all ten benchmarks
//	tables -table 2 -preset fast            # Table II
//	tables -table 12 -cases B4,B10          # both tables, two cases
//	tables -fig 1 -case B1 -dir out/        # Fig. 1 images + probe data
//	tables -fig 2 -case B4 -dir out/        # Fig. 2 evolution snapshots
//	tables -ablation all -case B4           # CG-vs-GD, Eq.17, w_pvb sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lsopc"
	"lsopc/internal/experiments"
	"lsopc/internal/render"
)

func main() {
	var (
		table     = flag.String("table", "", "regenerate tables: 1, 2 or 12")
		fig       = flag.Int("fig", 0, "regenerate a figure: 1 or 2")
		ablation  = flag.String("ablation", "", "run ablations: cg|kernel|pvb|complexity|step|hybrid|resolution|all")
		presetStr = flag.String("preset", "fast", "simulation preset: test|fast|paper")
		casesStr  = flag.String("cases", "", "comma-separated benchmark ids (default: all)")
		caseID    = flag.String("case", "B4", "benchmark for figures/ablations")
		iterScale = flag.Float64("iter-scale", 1, "scale every method's iteration budget")
		dir       = flag.String("dir", "out", "output directory for figure images")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
		csvPath   = flag.String("csv", "", "also write raw table results as CSV")
		tracePath = flag.String("tracefile", "", "write a structured JSONL event trace of every run to this file")
	)
	flag.Parse()

	if *table == "" && *fig == 0 && *ablation == "" {
		*table = "12" // default: everything tabular
	}
	if err := run(*table, *fig, *ablation, *presetStr, *casesStr, *caseID, *iterScale, *dir, *quiet, *csvPath, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(table string, fig int, ablation, presetStr, casesStr, caseID string, iterScale float64, dir string, quiet bool, csvPath, tracePath string) error {
	preset, err := lsopc.ParsePreset(presetStr)
	if err != nil {
		return err
	}

	if table != "" {
		opts := experiments.Options{Preset: preset, IterScale: iterScale}
		if casesStr != "" {
			opts.Cases = strings.Split(casesStr, ",")
		}
		if !quiet {
			opts.Progress = os.Stderr
		}
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			sink := lsopc.NewJSONLTraceSink(f)
			opts.Sink = sink
			defer func() {
				lsopc.FlushTrace(sink)
				f.Close()
			}()
		}
		rows, err := experiments.Run(opts)
		if err != nil {
			return err
		}
		if strings.Contains(table, "1") {
			fmt.Println(experiments.FormatTable1(rows))
		}
		if strings.Contains(table, "2") {
			fmt.Println(experiments.FormatTable2(rows))
		}
		if csvPath != "" {
			f, err := os.Create(csvPath)
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(f, rows); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "raw results written to %s\n", csvPath)
		}
	}

	switch fig {
	case 0:
	case 1:
		if err := runFig1(preset, caseID, dir); err != nil {
			return err
		}
	case 2:
		if err := runFig2(preset, caseID, dir); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown figure %d (want 1 or 2)", fig)
	}

	if ablation != "" {
		if err := runAblations(ablation, preset, caseID); err != nil {
			return err
		}
	}
	return nil
}

func runFig1(preset lsopc.Preset, caseID, dir string) error {
	d, err := experiments.Fig1Measurement(preset, caseID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]*lsopc.Field{
		"fig1_target.pgm":  d.Target,
		"fig1_nominal.pgm": d.Nominal,
		"fig1_outer.pgm":   d.Outer,
		"fig1_inner.pgm":   d.Inner,
		"fig1_pvband.pgm":  d.PVBand,
	}
	for name, f := range files {
		if err := render.SavePGM(filepath.Join(dir, name), f, 0, 1); err != nil {
			return err
		}
	}
	fmt.Printf("Fig.1 data for %s (unoptimized design):\n", caseID)
	fmt.Printf("  PV band area: %.0f nm² (Fig. 1b region written to fig1_pvband.pgm)\n", d.PVBandNM2)
	fmt.Printf("  EPE probes: %d, violations (D ≥ %.0f nm): %d\n", len(d.ProbeDists), d.EPEThreshold, d.Violations)
	hist := make(map[int]int)
	for _, dist := range d.ProbeDists {
		hist[int(dist/5)*5]++
	}
	fmt.Println("  probe distance histogram (5 nm bins):")
	for lo := 0; lo <= 80; lo += 5 {
		if n := hist[lo]; n > 0 {
			fmt.Printf("    %2d–%2d nm: %d\n", lo, lo+5, n)
		}
	}
	fmt.Printf("  images written to %s/\n", dir)
	return nil
}

func runFig2(preset lsopc.Preset, caseID, dir string) error {
	iters, every := 40, 10
	if preset == lsopc.PresetTest {
		iters, every = 12, 4
	}
	run, err := experiments.Fig2Evolution(preset, caseID, iters, every)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fmt.Printf("Fig.2 evolution for %s: %d snapshots over %d iterations\n",
		caseID, len(run.Snapshots), run.Iterations)
	for _, s := range run.Snapshots {
		name := fmt.Sprintf("fig2_iter%03d.pgm", s.Iter)
		if err := render.SavePGM(filepath.Join(dir, name), s.Mask, 0, 1); err != nil {
			return err
		}
		fmt.Printf("  iter %3d: mask area %6.0f px → %s\n", s.Iter, s.Mask.Sum(), name)
	}
	final := "fig2_final.pgm"
	if err := render.SavePGM(filepath.Join(dir, final), run.Mask, 0, 1); err != nil {
		return err
	}
	fmt.Printf("  final:    mask area %6.0f px → %s\n", run.Mask.Sum(), final)
	fmt.Println(run.Report)
	return nil
}

func runAblations(which string, preset lsopc.Preset, caseID string) error {
	all := which == "all"
	if all || which == "cg" {
		traces, err := experiments.CGvsGD(preset, caseID, 25)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatConvergence(traces))
	}
	if all || which == "kernel" {
		res, err := experiments.CombinedKernelAblation(preset, caseID, 5)
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if all || which == "pvb" {
		rows, err := experiments.PVBWeightSweep(preset, caseID, []float64{0, 0.3, 0.6, 1.0}, 25)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatPVBSweep(rows))
	}
	if all || which == "step" {
		traces, err := experiments.TimeStepStudy(preset, caseID, 25)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatConvergence(traces))
	}
	if all || which == "hybrid" {
		rows, err := experiments.HybridStudy(preset, caseID, 25)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatHybrid(caseID, rows))
	}
	if all || which == "resolution" {
		rows, err := experiments.ResolutionStudy([]lsopc.Preset{lsopc.PresetTest, lsopc.PresetFast}, caseID, 25)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatResolution(caseID, rows))
	}
	if all || which == "complexity" {
		rows, err := experiments.MaskComplexityStudy(preset, caseID, 1)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatComplexity(caseID, rows))
	}
	if !all && which != "cg" && which != "kernel" && which != "pvb" && which != "complexity" && which != "step" && which != "hybrid" && which != "resolution" {
		return fmt.Errorf("unknown ablation %q (want cg|kernel|pvb|complexity|step|hybrid|resolution|all)", which)
	}
	return nil
}
