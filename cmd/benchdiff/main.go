// Command benchdiff is the perf-regression gate over the BENCH_*.json
// artefacts cmd/benchjson writes. It takes each benchmark's minimum
// ns_per_op across the selected runs of two files (min-of-N), applies a
// relative-epsilon noise allowance, and exits non-zero when any
// benchmark regressed — so CI enforces the perf trajectory instead of
// archiving it.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -old-labels baseline -new-labels multires BENCH_multires.json BENCH_multires.json
//	benchdiff -old-labels monolithic -new-labels tiled -threshold 0.67 BENCH_tiled.json BENCH_tiled.json
//	benchdiff -inflate 1.25 -o slow.json base.json   # CI fixture: synthetic slowdown
//
// Exit status: 0 = no regressions, 1 = at least one regression,
// 2 = usage or input error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lsopc/internal/benchfmt"
)

func main() {
	var (
		oldLabels = flag.String("old-labels", "", "comma-separated run labels to use from the old file (default: all)")
		newLabels = flag.String("new-labels", "", "comma-separated run labels to use from the new file (default: all)")
		threshold = flag.Float64("threshold", 0.10, "relative noise allowance: regression when new > old*(1+threshold)")
		quiet     = flag.Bool("q", false, "suppress the per-benchmark table (verdict line only)")
		inflate   = flag.Float64("inflate", 0, "fixture mode: scale every metric of the input file by this factor and write it to -o")
		inflOut   = flag.String("o", "", "output path for -inflate")
	)
	flag.Parse()

	if *inflate != 0 {
		if flag.NArg() != 1 || *inflOut == "" {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -inflate FACTOR -o out.json in.json")
			os.Exit(2)
		}
		f, err := benchfmt.Load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if err := f.Inflate(*inflate).Save(*inflOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: wrote %s (metrics ×%g)\n", *inflOut, *inflate)
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json")
		flag.PrintDefaults()
		os.Exit(2)
	}
	oldF, err := benchfmt.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newF, err := benchfmt.Load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	res, err := benchfmt.Compare(oldF, newF, benchfmt.CompareOptions{
		OldLabels: splitLabels(*oldLabels),
		NewLabels: splitLabels(*newLabels),
		Threshold: *threshold,
	})
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		printTable(res)
	}
	verdict := "ok"
	if res.Regressions > 0 {
		verdict = fmt.Sprintf("%d regression(s)", res.Regressions)
	}
	fmt.Printf("benchdiff: %s (min of ns_per_op, threshold +%.1f%%)\n", verdict, 100*res.Threshold)
	if res.Regressions > 0 {
		os.Exit(1)
	}
}

func printTable(res *benchfmt.Result) {
	fmt.Printf("%-32s %14s %14s %8s\n", "benchmark", "old ns_per_op", "new ns_per_op", "ratio")
	for _, d := range res.Deltas {
		switch {
		case d.OnlyOld:
			fmt.Printf("%-32s %14.0f %14s %8s  (removed)\n", d.Name, d.Old, "-", "-")
		case d.OnlyNew:
			fmt.Printf("%-32s %14s %14.0f %8s  (added)\n", d.Name, "-", d.New, "-")
		default:
			mark := ""
			if d.Regression {
				mark = "  REGRESSION"
			}
			fmt.Printf("%-32s %14.0f %14.0f %8.3f%s\n", d.Name, d.Old, d.New, d.Ratio, mark)
		}
	}
}

func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
