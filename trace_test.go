package lsopc

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"lsopc/internal/core"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

// TestConcurrentSessionTraceIntegrity is the observability acceptance
// gate for the session runtime: several concurrent Pipeline calls
// optimizing through ONE shared JSONL sink must produce a stream where
// every line is valid JSON, the sink-assigned sequence numbers are
// strictly increasing (no lost or interleaved writes), every job's
// iteration events arrive in order 0..n-1 under its own session's trace
// id, and — because results are scheduling-independent — the
// per-iteration cost sequences are identical across jobs running the
// same layout. Run under `go test -race .` this is also the data-race
// gate for the trace path.
func TestConcurrentSessionTraceIntegrity(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	// The runtime sink carries the session-less pool/plan-cache events;
	// pointing it at the same JSONL stream mirrors the CLI's -tracefile
	// wiring and exercises the shared-mutex serialization under -race.
	SetRuntimeTrace(sink)
	defer SetRuntimeTrace(nil)
	const jobs = 4
	// Every job waits at its first iteration until all have reached
	// theirs, so the jobs hold their sessions at once and no session,
	// with its trace id, is handed from a finished job to a later one.
	barrier := &firstIterBarrier{}
	barrier.wg.Add(jobs)
	p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(TeeTraceSink(sink, barrier)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 5
	opts.Tolerance = 0 // fixed iteration count so all traces are comparable

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.OptimizeLevelSet(layout, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if err := FlushTrace(sink); err != nil {
		t.Fatal(err)
	}

	var (
		lastSeq int64
		iters   = map[string][]TraceEvent{}
		kinds   = map[string]int{}
	)
	for n, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		var e TraceEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", n+1, err, line)
		}
		if e.Type == "" {
			t.Fatalf("line %d: event without type: %s", n+1, line)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("line %d: seq %d not strictly increasing after %d", n+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		kinds[e.Type]++
		if e.Type == EventIteration {
			iters[e.Trace] = append(iters[e.Trace], e)
		}
	}
	for _, kind := range []string{EventIteration, EventCorner, EventSpan, EventPool} {
		if kinds[kind] == 0 {
			t.Errorf("no %q events in trace (got %v)", kind, kinds)
		}
	}
	if len(iters) != jobs {
		t.Fatalf("expected iteration events under %d trace ids, got %d: %v", jobs, len(iters), kinds)
	}
	var ref []TraceEvent
	for trace, seq := range iters {
		if len(seq) != opts.MaxIter {
			t.Fatalf("trace %s: %d iteration events, want %d", trace, len(seq), opts.MaxIter)
		}
		for i, e := range seq {
			if e.Iter != i {
				t.Fatalf("trace %s: iteration %d arrived out of order (Iter=%d)", trace, i, e.Iter)
			}
		}
		if ref == nil {
			ref = seq
			continue
		}
		// Same layout, same options, shared bank: sessions must be
		// bit-identical regardless of scheduling.
		for i := range seq {
			if seq[i].Cost != ref[i].Cost || seq[i].GradNorm != ref[i].GradNorm {
				t.Errorf("trace %s iter %d diverges: cost=%g gradnorm=%g want cost=%g gradnorm=%g",
					trace, i, seq[i].Cost, seq[i].GradNorm, ref[i].Cost, ref[i].GradNorm)
			}
		}
	}
}

// firstIterBarrier holds each job at its iteration-0 event until the
// wait group's count of jobs has reached theirs.
type firstIterBarrier struct{ wg sync.WaitGroup }

func (b *firstIterBarrier) Emit(e TraceEvent) {
	if e.Type == EventIteration && e.Iter == 0 {
		b.wg.Done()
		b.wg.Wait()
	}
}

// traceKindsRuns numbers TestTraceEventKinds's runs (go test -count=N).
var traceKindsRuns atomic.Int32

// TestTraceEventKinds drives one optimization with both the runtime sink
// (plan-cache and pool events from bank construction) and a per-run sink
// installed, and asserts every event family of the taxonomy shows up.
// The FFT plan cache and the kernel banks are process-wide and never
// evict, so each run halves the grid of the one before (32, 16, 8 and
// 4 px, the 1536 nm window kept by doubling the pixel): a length no
// other test in this binary and no earlier run has planned, so the cache
// genuinely misses on each of up to four runs.
func TestTraceEventKinds(t *testing.T) {
	c := NewCollectorTraceSink()
	SetRuntimeTrace(c)
	defer SetRuntimeTrace(nil)

	run := int(traceKindsRuns.Add(1))
	n := 32 >> (run - 1)
	if n < 4 {
		t.Fatalf("run %d: grid of %d px; the simulator needs at least 4", run, n)
	}
	cfg := litho.DefaultConfig(n, float64(48*32/n))
	cfg.Optics.Kernels = 2
	sim, err := litho.NewSimulator(cfg, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	sim.SetSink(c, "t1")

	target := NewField(n, n)
	for y := 12 * n / 32; y < 20*n/32; y++ {
		for x := 6 * n / 32; x < 26*n/32; x++ {
			target.Set(x, y, 1)
		}
	}
	opts := core.DefaultOptions()
	opts.MaxIter = 2
	opts.Sink = c
	opts.TraceID = "t1"
	if _, err := core.Run(context.Background(), sim, target, opts, nil); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	sawPlanMiss := false
	for _, e := range c.Events() {
		kinds[e.Type]++
		if e.Type == EventPlanCache && !e.Hit {
			sawPlanMiss = true
		}
	}
	for _, kind := range []string{EventIteration, EventCorner, EventPlanCache, EventPool} {
		if kinds[kind] == 0 {
			t.Errorf("no %q events collected (got %v)", kind, kinds)
		}
	}
	if !sawPlanMiss {
		t.Errorf("expected at least one plan-cache miss for the fresh grid size (got %v)", kinds)
	}
	for _, e := range c.Events() {
		if e.Type == EventIteration && e.Trace != "t1" {
			t.Errorf("iteration event carries trace %q, want %q", e.Trace, "t1")
		}
	}
}

// TestDisabledSinkDoesNotAllocate pins the "observability off" contract
// at the obs layer: emitting through a nil sink guard plus the atomic
// metric updates must stay allocation-free (the optimizer's own warm
// zero-alloc gate lives in internal/core's alloc test).
func TestDisabledSinkDoesNotAllocate(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("trace_test.disabled")
	h := reg.Histogram("trace_test.disabled_ns", obs.DurationBounds)
	var sink obs.Sink
	n := testing.AllocsPerRun(200, func() {
		ctr.Inc()
		h.Observe(123456)
		if sink != nil {
			sink.Emit(obs.Event{Type: EventIteration})
		}
	})
	if n != 0 {
		t.Fatalf("disabled-path metric+trace op allocates %.1f/op, want 0", n)
	}
}

// TestPipelineReleaseFlushesSinkOnce verifies Release drains the attached
// sink and that a double Release is a safe no-op.
func TestPipelineReleaseFlushesSinkOnce(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	layout := Benchmark("B1")
	mask, err := p.Target(layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(layout, mask, 0); err != nil {
		t.Fatal(err)
	}
	p.Release()
	if buf.Len() == 0 {
		t.Fatal("Release did not flush the attached sink")
	}
	p.Release() // must not panic or double-free
}

// TestPipelineHealthPolicyInheritance verifies WithHealthPolicy reaches
// runs started through the pipeline: a policy that flags every
// post-first iteration as stalled must abort the run early and emit a
// typed health event tagged with the session's trace id.
func TestPipelineHealthPolicyInheritance(t *testing.T) {
	sink := NewCollectorTraceSink()
	hp := DefaultHealthPolicy()
	hp.StallWindow = 1
	hp.StallEpsilon = 1e9 // any finite improvement counts as a stall
	hp.DivergenceWindow = 0
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink), WithHealthPolicy(hp))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	opts := DefaultLevelSetOptions()
	opts.MaxIter = 10
	opts.Tolerance = 0
	res, err := p.OptimizeLevelSet(Benchmark("B1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	ls := res.LevelSet
	if !ls.Aborted || ls.AbortReason != obs.HealthStall {
		t.Fatalf("aborted=%v reason=%q, want stall abort", ls.Aborted, ls.AbortReason)
	}
	if ls.Iterations >= opts.MaxIter {
		t.Fatalf("run used the full budget (%d iterations) despite the abort policy", ls.Iterations)
	}
	found := false
	for _, e := range sink.Events() {
		if e.Type == EventHealth {
			found = true
			if e.Trace == "" || e.Msg != obs.HealthStall {
				t.Fatalf("health event = %+v, want stall under a session trace id", e)
			}
		}
	}
	if !found {
		t.Fatal("no health event reached the pipeline sink")
	}
}

// TestRunSinkDoesNotOutliveRun: a run whose options carry their own sink
// installs it on the leased session's simulator; once the run returns,
// a later call leasing that session emits into the pipeline's sink (or
// none), never into the run's.
func TestRunSinkDoesNotOutliveRun(t *testing.T) {
	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 2
	opts.Tolerance = 0
	for _, traced := range []bool{false, true} {
		var popts []PipelineOption
		pipeSink := NewCollectorTraceSink()
		if traced {
			popts = append(popts, WithTraceSink(pipeSink))
		}
		p, err := NewPipeline(PresetTest, CPUEngine(), popts...)
		if err != nil {
			t.Fatal(err)
		}
		run := NewCollectorTraceSink()
		o := opts
		o.Sink = run
		res, err := p.OptimizeLevelSet(layout, o)
		if err != nil {
			t.Fatal(err)
		}
		before, pipeBefore := run.Len(), pipeSink.Len()
		if _, err := p.Evaluate(layout, res.Mask, 0); err != nil {
			t.Fatal(err)
		}
		if after := run.Len(); after != before {
			t.Errorf("traced=%v: the run's sink got %d events from a later Evaluate", traced, after-before)
		}
		if traced {
			corners := 0
			for _, e := range pipeSink.Events()[pipeBefore:] {
				if e.Type == EventCorner {
					corners++
				}
			}
			if corners == 0 {
				t.Error("the Evaluate after the run emitted no corner event to the pipeline's sink")
			}
		}
		p.Release()
	}
}
