// Command benchjson measures the two A/B comparisons that cmd/benchdiff
// gates and writes each into a JSON artefact under two fixed run labels:
//
//	go run ./cmd/benchjson -multires   # BENCH_multires.json: baseline vs multires
//	go run ./cmd/benchjson -tiled      # BENCH_tiled.json: monolithic vs tiled
//
// Each case is timed by testing.Benchmark, so ns/op, B/op, and
// allocs/op match `go test -bench` output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lsopc/internal/benchfmt"
)

func main() {
	out := flag.String("o", "", "output JSON file (merged in place; default BENCH_multires.json or BENCH_tiled.json)")
	filter := flag.String("bench", "", "substring filter on benchmark names")
	multires := flag.Bool("multires", false, "measure Table II per-case runtime, full-res float64 vs coarse-to-fine factor 2, float64 (BENCH_multires.json)")
	tiled := flag.Bool("tiled", false, "measure full-chip runtime, monolithic window vs tiled overlap-halo optimization (BENCH_tiled.json)")
	flag.Parse()
	var err error
	switch {
	case *multires == *tiled:
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -multires and -tiled is required")
		os.Exit(2)
	case *multires:
		if *out == "" {
			*out = "BENCH_multires.json"
		}
		err = multiresMain(*out, *filter)
	default:
		if *out == "" {
			*out = "BENCH_tiled.json"
		}
		err = tiledMain(*out, *filter)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// prepareFunc readies one case for timing: it returns the timed job
// and a release func (nil for none) that runs once the case's
// measurement is done.
type prepareFunc func(name string) (job func() error, release func(), err error)

// variant is one side of an A/B artefact.
type variant struct {
	label, note string
	prepare     prepareFunc
}

// runAB times every case that matches filter under both variants and
// merges the two labelled runs into the artefact at out, replacing any
// earlier runs under the same labels. Variants interleave per case (A
// then B back to back) so slow thermal/host drift across the sweep
// cannot masquerade as a variant difference.
func runAB(out, description, filter string, cases []string, variants [2]variant) error {
	file := benchfmt.File{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s exists but is not valid JSON: %w", out, err)
		}
	}
	if file.Runs == nil {
		file.Runs = map[string]benchfmt.Run{}
	}
	// Both labels are re-measured below, so the description always
	// names this code's variants, even when merging into an old file.
	file.Description = description
	file.GOOS, file.GOARCH = runtime.GOOS, runtime.GOARCH

	var runs [2]benchfmt.Run
	for i, v := range variants {
		runs[i] = benchfmt.Run{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Note:       v.note,
			Benchmarks: map[string]benchfmt.Measurement{},
		}
	}
	measured := 0
	for _, name := range cases {
		if filter != "" && !strings.Contains(name, filter) {
			continue
		}
		measured++
		for i, v := range variants {
			fmt.Fprintf(os.Stderr, "running %-12s %-22s ", v.label, name)
			job, release, err := v.prepare(name)
			if err != nil {
				return err
			}
			runs[i].Timestamp = time.Now().UTC().Format(time.RFC3339)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for j := 0; j < b.N; j++ {
					if err := job(); err != nil {
						b.Fatal(err)
					}
				}
			})
			if release != nil {
				release()
			}
			m := benchfmt.Measurement{
				NsPerOp:     r.NsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			}
			runs[i].Benchmarks[name] = m
			fmt.Fprintf(os.Stderr, "%12d ns/op (n=%d)\n", m.NsPerOp, m.Iterations)
		}
	}
	if measured == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: filter %q excludes every case, nothing to do\n", filter)
		return nil
	}
	for i, v := range variants {
		file.Runs[v.label] = runs[i]
	}
	if err := file.Save(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (labels %s+%s)\n", out, variants[0].label, variants[1].label)
	return nil
}
