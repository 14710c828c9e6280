package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lsopc"
	"lsopc/internal/benchfmt"
)

// multiresMain measures the Table II per-case optimization runtime for
// the full-resolution float64 reference and the coarse-to-fine
// (factor 2, float64) schedule, writing both into one artefact under
// the fixed labels "baseline" and "multires". The same file then gates
// the speedup:
//
//	benchdiff -old-labels baseline -new-labels multires \
//	    BENCH_multires.json BENCH_multires.json
//
// exits non-zero if coarse-to-fine is ever slower than the reference —
// the schedule's quality equivalence is enforced separately by
// TestMultiResMatchesBaselineQuality (EPE/PVB within tolerance on all
// ten benchmarks).
func multiresMain(out, note, filter string) {
	const maxIter = 10 // matches the Table2PerCase measurements in BENCH_batchfft.json

	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	baseOpts := lsopc.DefaultLevelSetOptions()
	baseOpts.MaxIter = maxIter
	multiOpts := baseOpts
	multiOpts.MultiResFactor = 2

	variants := []struct {
		label string
		opts  lsopc.LevelSetOptions
		note  string
	}{
		{"baseline", baseOpts, "full-resolution float64 reference (the PR 1 batched path)"},
		{"multires", multiOpts, "coarse-to-fine factor 2, float64; " + note},
	}

	file := benchfmt.File{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Runs:   map[string]benchfmt.Run{},
	}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", out, err)
			os.Exit(1)
		}
	}
	if file.Runs == nil {
		file.Runs = map[string]benchfmt.Run{}
	}
	// Both labels are re-measured below, so the description always
	// names this code's variants, even when merging into an old file.
	file.Description = "Table II per-case optimization runtime (PresetTest, 10 iterations): full-resolution float64 baseline vs coarse-to-fine multi-resolution (factor 2, float64). Quality equivalence (final EPE/PVB within tolerance on all ten ICCAD cases) is enforced by TestMultiResMatchesBaselineQuality; this artefact locks in the speed side via cmd/benchdiff (-old-labels baseline -new-labels multires)."

	runs := make([]benchfmt.Run, len(variants))
	for i, v := range variants {
		runs[i] = benchfmt.Run{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Note:       v.note,
			Benchmarks: map[string]benchfmt.Measurement{},
		}
	}
	// Variants interleave per case (baseline then multires back to back)
	// so slow thermal/host drift across the sweep cannot masquerade as a
	// variant difference.
	for _, spec := range lsopc.Benchmarks() {
		name := "Table2PerCase/" + spec.ID
		if filter != "" && !strings.Contains(name, filter) {
			continue
		}
		layout := lsopc.Benchmark(spec.ID)
		for i, v := range variants {
			fmt.Fprintf(os.Stderr, "running %-10s %-22s ", v.label, name)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.OptimizeLevelSet(layout, v.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
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
	for i, v := range variants {
		file.Runs[v.label] = runs[i]
	}

	if err := file.Save(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (labels baseline+multires)\n", out)
}
