// Package benchfmt defines the on-disk schema of the BENCH_*.json
// artefacts that cmd/benchjson writes (labelled runs of go-test-style
// measurements) and the noise-aware comparison logic cmd/benchdiff uses
// to turn two such artefacts into a pass/fail perf-regression gate.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Measurement is one benchmark result in go-test units.
type Measurement struct {
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Iterations  int    `json:"iterations"`
	Note        string `json:"note,omitempty"`
}

// Run is one labelled benchmark sweep.
type Run struct {
	Timestamp  string                 `json:"timestamp"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"numcpu"`
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// File is the on-disk artefact: metadata plus labelled runs.
type File struct {
	Description string         `json:"description"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	Runs        map[string]Run `json:"runs"`
}

// Load reads and decodes one BENCH_*.json artefact.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Save writes the artefact as indented JSON (trailing newline, matching
// what cmd/benchjson writes).
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Labels returns the run labels in sorted order.
func (f *File) Labels() []string {
	out := make([]string, 0, len(f.Runs))
	for l := range f.Runs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Inflate returns a deep copy with every benchmark's metrics scaled by
// factor — the synthetic-slowdown fixture the CI smoke gate uses to
// prove the regression check actually trips.
func (f *File) Inflate(factor float64) *File {
	out := &File{Description: f.Description, GOOS: f.GOOS, GOARCH: f.GOARCH, Runs: map[string]Run{}}
	for label, run := range f.Runs {
		nr := run
		nr.Benchmarks = make(map[string]Measurement, len(run.Benchmarks))
		for name, m := range run.Benchmarks {
			m.NsPerOp = int64(float64(m.NsPerOp) * factor)
			m.BytesPerOp = int64(float64(m.BytesPerOp) * factor)
			m.AllocsPerOp = int64(float64(m.AllocsPerOp) * factor)
			nr.Benchmarks[name] = m
		}
		out.Runs[label] = nr
	}
	return out
}
