package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"lsopc"
)

//go:embed golden.json
var goldenJSON []byte

// goldenEntry is one job's reference quality, recorded with
// -write-golden at the commit that defined the benchmark.
type goldenEntry struct {
	EPE   int       `json:"epe"`
	PVB   float64   `json:"pvb_nm2"`
	Shape int       `json:"shape"`
	CD    []float64 `json:"cd_nm,omitempty"`
}

// goldenFile is golden.json: scale name → workload → job key → entry.
type goldenFile map[string]map[string]map[string]goldenEntry

// pvbSlack is the share by which a job's PV band may exceed its golden
// value before the job fails.
const pvbSlack = 0.05

// newChecker returns the output check of one workload's jobs. A job
// fails when its EPE or shape violations exceed the golden counts, its
// PV band exceeds the golden value by more than pvbSlack, or any
// process-window CD differs from the golden one by more than a pixel.
// A chip job also fails inside the job on an abort or a seam
// disagreement above maxSeam.
func newChecker(w *workload, sc scale, pixelNM float64) (func(jobResult) error, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	entries := g[sc.name][w.name]
	return func(r jobResult) error {
		e, ok := entries[r.Key]
		switch {
		case !ok:
			return fmt.Errorf("golden.json has no %s entry for %s", w.name, r.Key)
		case r.EPE > e.EPE:
			return fmt.Errorf("%d EPE violations, golden %d", r.EPE, e.EPE)
		case r.Shape > e.Shape:
			return fmt.Errorf("%d shape violations, golden %d", r.Shape, e.Shape)
		case r.PVB > e.PVB*(1+pvbSlack):
			return fmt.Errorf("PV band %.0f nm², golden %.0f nm²", r.PVB, e.PVB)
		case len(r.CD) != len(e.CD):
			return fmt.Errorf("%d process-window CDs, golden %d", len(r.CD), len(e.CD))
		}
		for i, cd := range r.CD {
			if math.Abs(cd-e.CD[i]) > pixelNM {
				return fmt.Errorf("process-window CD %d is %g nm, golden %g nm", i, cd, e.CD[i])
			}
		}
		return nil
	}, nil
}

// writeGolden runs every workload's jobs, on the golden clips of
// iccad_* and verify_pw, at both scales and records their quality to
// path.
func writeGolden(path string, log io.Writer) error {
	out := goldenFile{}
	for _, sc := range []scale{fullScale, toyScale} {
		sc.fastClips, sc.multiresClips, sc.verifyClips = sc.goldenClips, sc.goldenClips, sc.goldenClips
		p := genPlan(1, sc)
		out[sc.name] = map[string]map[string]goldenEntry{}
		for _, w := range workloads {
			pipe, err := lsopc.NewPipeline(w.preset(sc), lsopc.GPUEngine())
			if err != nil {
				return err
			}
			c := &client{pipe: pipe}
			inst, err := w.setup(c, sc, p[w.name])
			if err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
			entries := map[string]goldenEntry{}
			for _, j := range inst.jobs {
				r := j.run(c)
				if r.Err != "" {
					return fmt.Errorf("%s %s %s: %s", sc.name, w.name, j.key, r.Err)
				}
				entries[j.key] = goldenEntry{EPE: r.EPE, PVB: r.PVB, Shape: r.Shape, CD: r.CD}
				fmt.Fprintf(log, "%s %s %s: epe %d pvb %.0f shape %d\n", sc.name, w.name, j.key, r.EPE, r.PVB, r.Shape)
			}
			out[sc.name][w.name] = entries
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
