// Command bench is the repository benchmark. It drives the level-set
// mask optimizer from outside, through the public lsopc API only, on
// four closed-loop workloads, prints every end-to-end metric with its
// unit, and checks every job's output against golden.json. README.md
// describes the workloads, the metrics and how to compare two commits.
//
// From the repository root:
//
//	bash bench/run.sh                                 # all four workloads
//	bash bench/run.sh -workload iccad_fast -seed 3    # one workload
//	bash bench/run.sh -workload chip_tiled -trace 1   # per-layer metrics
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lsopc"
)

// setupRuns is how many cold set-ups one untraced workload run makes,
// each in its own process; setup_s is their median. Only the last one
// goes on to the timed jobs.
const setupRuns = 5

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceDir  string
	jsonOut   string
	goldenOut string
	toy       bool
	child     bool
	setupOnly bool
}

func (o options) scale() scale {
	if o.toy {
		return toyScale
	}
	return fullScale
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, one after another)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the job lists")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring window per workload: whole job cycles run while the next one is expected to end inside it (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes <workload>.spans.jsonl and layers.json")
	fs.StringVar(&o.jsonOut, "json", "", "also write the results to this file")
	fs.StringVar(&o.goldenOut, "write-golden", "", "record the output check's reference quality to this file, then exit")
	fs.BoolVar(&o.toy, "toy", false, "run the smoke test's miniature workloads")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	var err error
	switch {
	case o.goldenOut != "":
		err = writeGolden(o.goldenOut, stderr)
	case o.child:
		var res *childResult
		if res, err = runChild(o, stderr); err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
	default:
		return runParent(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// client is what jobs call through: a pipeline and, on the traced pass,
// the tracer that wraps each public call in a bench span.
type client struct {
	pipe  *lsopc.Pipeline
	tr    *tracer
	clips map[string]clipInput
}

type clipInput struct {
	layout *lsopc.Layout
	target *lsopc.Field
}

// call runs f, inside a bench span named after the public call when
// tracing.
func (c *client) call(name string, f func()) {
	if c.tr != nil {
		c.tr.begin(name, "")
		defer c.tr.end()
	}
	f()
}

// clip builds an ICCAD clip once per client and rasterises it, which
// also fills the pipeline's target cache before timing.
func (c *client) clip(id string) (*lsopc.Layout, *lsopc.Field, error) {
	if in, ok := c.clips[id]; ok {
		return in.layout, in.target, nil
	}
	l, err := lsopc.BenchmarkByID(id)
	if err != nil {
		return nil, nil, err
	}
	var target *lsopc.Field
	c.call("lsopc.Target", func() { target, err = c.pipe.Target(l) })
	if err != nil {
		return nil, nil, err
	}
	if c.clips == nil {
		c.clips = map[string]clipInput{}
	}
	c.clips[id] = clipInput{l, target}
	return l, target, nil
}

// childResult is what one workload process reports to its parent.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	SetupRef  float64            `json:"setup_ref_s"` // hostRef around the set-up
	Jobs      []jobResult        `json:"jobs,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runChild sets up one workload in this process, warms it up untimed
// and, unless setupOnly, runs its timed or traced pass.
func runChild(o options, log io.Writer) (*childResult, error) {
	sc := o.scale()
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	specs := genPlan(o.seed, sc)[w.name]
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}

	ref0 := hostRef()
	start := time.Now()
	pipe, err := lsopc.NewPipeline(w.preset(sc), lsopc.GPUEngine())
	if err != nil {
		return nil, err
	}
	check, err := newChecker(w, sc, pipe.PixelNM())
	if err != nil {
		return nil, err
	}
	c := &client{pipe: pipe, tr: tr}
	inst, err := w.setup(c, sc, specs)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	c.tr = nil
	if err := inst.warm(c); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	res := &childResult{SetupS: time.Since(start).Seconds(), SetupRef: (ref0 + hostRef()).Seconds() / 2}
	if o.setupOnly {
		return res, nil
	}
	if tr == nil {
		res.Jobs = measure(c, inst, o.seconds, check)
	} else if res.Jobs, res.Layers, err = tracedPass(o, w, sc, inst, c, tr, check, log); err != nil {
		return nil, err
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// measure runs whole cycles of the job list, closed loop with one
// client, while the next cycle is expected to end inside the window.
// Whole cycles keep every run's job mix the same. The host reference
// runs between jobs; each job records the mean of the two around it.
func measure(c *client, inst *instance, seconds float64, check func(jobResult) error) []jobResult {
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var out []jobResult
	ref := hostRef()
	for {
		cycle := time.Now()
		for _, j := range inst.jobs {
			r := runJob(c, j, check)
			next := hostRef()
			r.Ref = (ref + next).Seconds() / 2
			ref = next
			out = append(out, r)
		}
		if time.Since(start)+time.Since(cycle) > window {
			return out
		}
	}
}

// runCycle runs every job once, in order, timing and checking each.
func runCycle(c *client, inst *instance, check func(jobResult) error) []jobResult {
	out := make([]jobResult, 0, len(inst.jobs))
	for _, j := range inst.jobs {
		out = append(out, runJob(c, j, check))
	}
	return out
}

// runJob runs one job, timing and checking it.
func runJob(c *client, j job, check func(jobResult) error) jobResult {
	if c.tr != nil {
		c.tr.begin("job", j.key)
	}
	start := time.Now()
	r := j.run(c)
	r.Seconds = time.Since(start).Seconds()
	if c.tr != nil {
		c.tr.end()
	}
	r.Key = j.key
	if r.Err == "" {
		if err := check(r); err != nil {
			r.Err = err.Error()
		}
	}
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricDef declares one reported metric. BENCHMARK.json lists the
// same names and units, with each metric's direction and bound.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_min", "jobs/min"},
	{"job_s_p50", "s"},
	{"job_s_tail", "s"},
	{"pvb_nm2", "nm2/job"},
	{"peak_rss_mb", "MB"},
}

// metricValue is one reported number. Wall is the unadjusted value of a
// time metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Wall  float64 `json:"wall,omitempty"`
}

// outcome is one workload's result.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	jobs      []jobResult
}

// line is the outcome as one JSON object with only value and unit per
// metric, the last line a single-workload run prints.
func (out outcome) line() ([]byte, error) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]vu, len(out.Metrics))
	for k, v := range out.Metrics {
		m[k] = vu{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, m})
}

// resultFile is the -json output: one run of one or more workloads,
// with the host it ran on.
type resultFile struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Workloads map[string]outcome `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostInfo {
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// runParent runs each requested workload in its own child processes,
// one at a time, and prints one result line per workload.
func runParent(o options, stdout, stderr io.Writer) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	file := resultFile{Host: currentHost(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]outcome{}}
	code := 0
	for _, name := range names {
		if _, err := workloadByName(name); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		out, err := runWorkload(o, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printOutcome(stderr, name, out)
		line, err := out.line()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		file.Workloads[name] = out
		if !out.Correct {
			code = 1
		}
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload's child processes and turns their
// reports into its outcome.
func runWorkload(o options, name string, stderr io.Writer) (outcome, error) {
	runs := setupRuns
	if o.trace == 1 {
		runs = 1
	}
	var setups, setupRefs []float64
	var last *childResult
	for i := 0; i < runs; i++ {
		res, err := spawnChild(o, name, i < runs-1, stderr)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, res.SetupS)
		setupRefs = append(setupRefs, res.SetupRef)
		last = res
	}
	out := outcome{Attempted: len(last.Jobs), jobs: last.Jobs, Metrics: map[string]metricValue{}}
	for _, j := range last.Jobs {
		if j.Err != "" {
			out.Failed++
		}
	}
	out.Correct = out.Attempted > 0 && out.Failed == 0
	if o.trace == 1 {
		for _, d := range perLayer {
			out.Metrics[d.name] = metricValue{Value: last.Layers[d.name], Unit: d.unit, N: len(last.Jobs)}
		}
		return out, nil
	}
	// Time metrics are host-adjusted (see hostAdjusted); Wall keeps the
	// measured value.
	adjSetups := make([]float64, len(setups))
	for i := range setups {
		adjSetups[i] = hostAdjusted(setups[i], setupRefs[i])
	}
	n := len(last.Jobs)
	wall, adj := make([]float64, n), make([]float64, n)
	var pvb []float64
	for i, j := range last.Jobs {
		wall[i], adj[i] = j.Seconds, hostAdjusted(j.Seconds, j.Ref)
		if j.Err == "" {
			pvb = append(pvb, j.PVB)
		}
	}
	for _, d := range endToEnd {
		var v metricValue
		switch d.name {
		case "setup_s":
			v = metricValue{quantile(adjSetups, 0.5), d.unit, len(setups), quantile(setups, 0.5)}
		case "jobs_per_min":
			v = metricValue{60 / mean(adj), d.unit, n, 60 / mean(wall)}
		case "job_s_p50":
			v = metricValue{quantile(adj, 0.5), d.unit, n, quantile(wall, 0.5)}
		case "job_s_tail":
			v = metricValue{tail(adj), d.unit, n, tail(wall)}
		case "pvb_nm2":
			v = metricValue{Value: mean(pvb), Unit: d.unit, N: len(pvb)}
		case "peak_rss_mb":
			v = metricValue{Value: last.PeakRSSMB, Unit: d.unit, N: 1}
		}
		out.Metrics[d.name] = v
	}
	return out, nil
}

// spawnChild runs this program again as one workload's process and
// decodes the report it prints last.
func spawnChild(o options, name string, setupOnly bool, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-trace-dir", o.traceDir}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if o.toy {
		args = append(args, "-toy")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("workload process report: %w", err)
	}
	return &res, nil
}

// printOutcome writes the human-readable result of one workload.
func printOutcome(w io.Writer, name string, out outcome) {
	for _, d := range append(endToEnd, perLayer...) {
		if v, ok := out.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-15s %-34s %14.4f %-9s n=%d", name, d.name, v.Value, v.Unit, v.N)
			if v.Wall != 0 {
				fmt.Fprintf(w, " wall=%.4f", v.Wall)
			}
			fmt.Fprintln(w)
		}
	}
	var epe, shape, seam float64
	for _, j := range out.jobs {
		epe += float64(j.EPE)
		shape += float64(j.Shape)
		seam = math.Max(seam, j.Seam)
		if j.Err != "" {
			fmt.Fprintf(w, "%-15s FAIL %s: %s\n", name, j.Key, j.Err)
		}
	}
	if n := float64(len(out.jobs)); n > 0 {
		fmt.Fprintf(w, "%-15s checks: %d/%d jobs passed; epe_violations %.2f/job, shape_violations %.2f/job, seam_max %.4f\n",
			name, out.Attempted-out.Failed, out.Attempted, epe/n, shape/n, seam)
	}
}
