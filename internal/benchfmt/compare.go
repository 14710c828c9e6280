package benchfmt

import (
	"fmt"
	"sort"
	"strings"
)

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// OldLabels / NewLabels select which runs of each file participate;
	// empty selects every run in the file.
	OldLabels []string
	NewLabels []string
	// Threshold is the relative-epsilon noise allowance: a benchmark
	// regresses only when new > old × (1 + Threshold).
	Threshold float64
}

// Delta compares one benchmark across the two files.
type Delta struct {
	Name string
	Old  float64
	New  float64
	// Ratio is New/Old (0 when Old is 0 or the benchmark is one-sided).
	Ratio      float64
	Regression bool
	// OnlyOld/OnlyNew mark benchmarks present on a single side; they are
	// reported but never count as regressions.
	OnlyOld bool
	OnlyNew bool
}

// Result is the full gate outcome.
type Result struct {
	Threshold   float64
	Deltas      []Delta
	Regressions int
}

// Compare takes each benchmark's minimum ns_per_op over the selected
// runs of both files (min-of-N: the fastest observation is the least
// noise-contaminated one) and flags regressions with the
// relative-epsilon rule. Benchmarks present on only one side are
// reported informationally. An error is returned when a requested label
// does not exist or the selection matches no benchmarks at all.
func Compare(oldF, newF *File, opts CompareOptions) (*Result, error) {
	oldVals, err := minNsPerOp(oldF, opts.OldLabels)
	if err != nil {
		return nil, fmt.Errorf("old file: %w", err)
	}
	newVals, err := minNsPerOp(newF, opts.NewLabels)
	if err != nil {
		return nil, fmt.Errorf("new file: %w", err)
	}
	if len(oldVals) == 0 || len(newVals) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmarks selected (old %d, new %d)", len(oldVals), len(newVals))
	}

	names := map[string]bool{}
	for n := range oldVals {
		names[n] = true
	}
	for n := range newVals {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	res := &Result{Threshold: opts.Threshold}
	for _, n := range ordered {
		ov, inOld := oldVals[n]
		nv, inNew := newVals[n]
		d := Delta{Name: n, Old: ov, New: nv, OnlyOld: !inNew, OnlyNew: !inOld}
		if inOld && inNew {
			if ov != 0 {
				d.Ratio = nv / ov
			}
			if nv > ov*(1+opts.Threshold) {
				d.Regression = true
				res.Regressions++
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res, nil
}

// minNsPerOp takes each benchmark's minimum ns_per_op across the
// selected runs.
func minNsPerOp(f *File, labels []string) (map[string]float64, error) {
	selected := labels
	if len(selected) == 0 {
		selected = f.Labels()
	}
	out := map[string]float64{}
	for _, label := range selected {
		run, ok := f.Runs[label]
		if !ok {
			return nil, fmt.Errorf("no run labelled %q (have %s)", label, strings.Join(f.Labels(), ", "))
		}
		for name, m := range run.Benchmarks {
			if v, seen := out[name]; !seen || float64(m.NsPerOp) < v {
				out[name] = float64(m.NsPerOp)
			}
		}
	}
	return out, nil
}
