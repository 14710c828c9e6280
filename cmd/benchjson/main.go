// Command benchjson runs the performance benchmarks behind the batched
// FFT / concurrent-corner work and merges the results into a JSON
// artefact (BENCH_batchfft.json by default), keyed by a run label so
// before/after measurements live side by side:
//
//	go run ./cmd/benchjson -label after
//	go run ./cmd/benchjson -label seed -o BENCH_batchfft.json
//	go run ./cmd/benchjson -tiled        # full-chip monolithic vs tiled
//
// Each benchmark is executed with the standard testing.Benchmark driver,
// so ns/op, B/op, and allocs/op match `go test -bench` output.
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

	"lsopc"
	"lsopc/internal/benchfmt"
	"lsopc/internal/engine"
	"lsopc/internal/experiments"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

// The artefact schema (File/Run/Measurement) lives in internal/benchfmt,
// shared with cmd/benchdiff so the regression gate reads exactly what
// this command writes.

func main() {
	out := flag.String("o", "", "output JSON file (merged in place)")
	label := flag.String("label", "", "run label, e.g. seed or after (required)")
	note := flag.String("note", "", "free-form note stored with the run")
	filter := flag.String("bench", "", "substring filter on benchmark names")
	multires := flag.Bool("multires", false, "measure Table II per-case runtime, full-res float64 vs coarse-to-fine factor 2, float64 (BENCH_multires.json)")
	tiled := flag.Bool("tiled", false, "measure full-chip runtime, monolithic window vs tiled overlap-halo optimization (BENCH_tiled.json)")
	flag.Parse()
	if *multires {
		// Labels are fixed ("baseline"/"multires"): the artefact compares
		// the two variants against each other, not runs over time.
		if *out == "" {
			*out = "BENCH_multires.json"
		}
		multiresMain(*out, *note, *filter)
		return
	}
	if *tiled {
		// Labels are fixed ("monolithic"/"tiled") for the same reason.
		if *out == "" {
			*out = "BENCH_tiled.json"
		}
		tiledMain(*out, *note, *filter)
		return
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_batchfft.json"
	}

	benches := benchmarks()
	run := benchfmt.Run{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note:       *note,
		Benchmarks: map[string]benchfmt.Measurement{},
	}
	for _, b := range benches {
		if *filter != "" && !strings.Contains(b.name, *filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-28s ", b.name)
		r := testing.Benchmark(b.fn)
		m := benchfmt.Measurement{
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		run.Benchmarks[b.name] = m
		fmt.Fprintf(os.Stderr, "%12d ns/op %8d B/op %5d allocs/op (n=%d)\n",
			m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.Iterations)
	}

	file := benchfmt.File{
		Description: "Benchmarks for the batched kernel-parallel FFT execution and concurrent process-corner simulation. Labels: seed = before the change, after = with batched/banded FFT paths.",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Runs:        map[string]benchfmt.Run{},
	}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if file.Runs == nil {
		file.Runs = map[string]benchfmt.Run{}
	}
	file.Runs[*label] = run

	if err := file.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (label %q, %d benchmarks)\n", *out, *label, len(run.Benchmarks))
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks mirrors the top-level bench_test.go definitions that the
// acceptance numbers are quoted from, plus FFT micro-benchmarks for the
// 1-D kernel and the batched plan.
func benchmarks() []namedBench {
	return []namedBench{
		{"Table2PerCase/cpu", benchTable2(lsopc.CPUEngine())},
		{"Table2PerCase/gpu", benchTable2(lsopc.GPUEngine())},
		{"AerialExact", benchAerial(false)},
		{"AerialFused", benchAerial(true)},
		{"Gradient", benchGradient},
		{"FFT1D/128", benchFFT1D(128)},
		{"FFT1D/512", benchFFT1D(512)},
		{"BatchFFT/forward8x128", benchBatchForward},
		{"BatchFFT/inverseBanded8x128", benchBatchInverseBanded},
	}
}

func benchTable2(eng *lsopc.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.EngineRuntime(lsopc.PresetTest, "B4", eng, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchPipeline(b *testing.B) (*lsopc.Pipeline, *lsopc.Field, *grid.CField) {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		b.Fatal(err)
	}
	target, err := pipe.Target(lsopc.Benchmark("B4"))
	if err != nil {
		b.Fatal(err)
	}
	return pipe, target, pipe.Simulator().MaskSpectrum(target)
}

func benchAerial(fused bool) func(b *testing.B) {
	return func(b *testing.B) {
		pipe, target, spec := benchPipeline(b)
		sim := pipe.Simulator()
		out := grid.NewField(target.W, target.H)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fused {
				sim.AerialFast(out, spec, litho.Nominal)
			} else {
				sim.Aerial(out, spec, litho.Nominal)
			}
		}
	}
}

func benchGradient(b *testing.B) {
	pipe, target, spec := benchPipeline(b)
	sim := pipe.Simulator()
	n := sim.GridSize()
	grad := grid.NewField(n, n)
	imgs := litho.NewCornerImages(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad.Zero()
		sim.ForwardAndGradient(grad, spec, litho.Nominal, target, imgs, 1)
	}
}

const (
	fftBatch = 8
	fftSize  = 128
	fftBand  = 28 // matches the kernel box radius at PresetTest scale
)

func newFFTBatch() []*grid.CField {
	fields := make([]*grid.CField, fftBatch)
	for i := range fields {
		f := grid.NewCField(fftSize, fftSize)
		for j := range f.Data {
			f.Data[j] = complex(float64(j%17)*0.25, float64(j%13)*-0.5)
		}
		fields[i] = f
	}
	return fields
}

// benchFFT1D times one forward plus one inverse 1-D transform of length
// n, the kernel under every row and column pass.
func benchFFT1D(n int) func(b *testing.B) {
	return func(b *testing.B) {
		p := fft.NewPlan(n)
		x := make([]complex128, n)
		for j := range x {
			x[j] = complex(float64(j%17)*0.25, float64(j%13)*-0.5)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(x)
			p.Inverse(x)
		}
	}
}

func benchBatchForward(b *testing.B) {
	p := fft.NewBatchPlan2D(fftSize, fftSize, engine.New("bench", runtime.NumCPU()))
	fields := newFFTBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchForward(fields)
	}
}

func benchBatchInverseBanded(b *testing.B) {
	p := fft.NewBatchPlan2D(fftSize, fftSize, engine.New("bench", runtime.NumCPU()))
	fields := newFFTBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchInverseBanded(fields, fftBand)
	}
}
