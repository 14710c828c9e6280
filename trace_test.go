package lsopc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"lsopc/internal/core"
	"lsopc/internal/layouts"
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

// TestTraceEventKinds drives one optimization with both the runtime sink
// (plan-cache and pool events from session construction) and a session
// sink set on the simulator, and asserts every event family of the
// taxonomy shows up. The run is coarse-to-fine (factor 2), so its ψ
// hand-off looks up FFT plans on every run; lookups are traced on hits
// as well as misses, so the test holds however warm the process-wide
// caches are. The miss path has its own test in internal/fft.
func TestTraceEventKinds(t *testing.T) {
	c := NewCollectorTraceSink()
	SetRuntimeTrace(c)
	defer SetRuntimeTrace(nil)

	cfg := litho.DefaultConfig(32, 48)
	cfg.Optics.Kernels = 2
	sim, err := litho.NewSimulator(cfg, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	sim.SetSink(c, "t1")

	target := NewField(32, 32)
	for y := 12; y < 20; y++ {
		for x := 6; x < 26; x++ {
			target.Set(x, y, 1)
		}
	}
	opts := core.DefaultOptions()
	opts.MaxIter = 2
	opts.MultiResFactor = 2
	if _, err := core.Run(context.Background(), sim, target, opts, nil); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, e := range c.Events() {
		kinds[e.Type]++
	}
	for _, kind := range []string{EventIteration, EventCorner, EventPlanCache, EventPool} {
		if kinds[kind] == 0 {
			t.Errorf("no %q events collected (got %v)", kind, kinds)
		}
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

// TestPipelineRunHealthPolicy verifies a per-run opts.Health reaches a
// run started through the pipeline: a policy that flags every
// post-first iteration as stalled must abort the run early and emit a
// typed health event tagged with the session's trace id.
func TestPipelineRunHealthPolicy(t *testing.T) {
	sink := NewCollectorTraceSink()
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	hp := DefaultHealthPolicy()
	hp.StallWindow = 1
	hp.StallEpsilon = 1e9 // any finite improvement counts as a stall
	hp.DivergenceWindow = 0
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 10
	opts.Tolerance = 0
	opts.Health = &hp
	res, err := p.OptimizeLevelSet(Benchmark("B1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != obs.HealthStall {
		t.Fatalf("aborted=%v reason=%q, want stall abort", res.Aborted, res.AbortReason)
	}
	if res.Iterations >= opts.MaxIter {
		t.Fatalf("run used the full budget (%d iterations) despite the abort policy", res.Iterations)
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

// TestPipelineBaselineNaNGradientAborts: a baseline whose gradient is
// NaN (PVBWeight = math.MaxFloat64 on a 64² rectangle) is stopped by the
// watchdog, and the pipeline's run shows the abort on the same fields a
// level-set run uses.
func TestPipelineBaselineNaNGradientAborts(t *testing.T) {
	p, err := NewCustomPipeline(64, 32, 2, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	l := NewLayout("rect", 2048, 2048)
	l.Rects = append(l.Rects, NewRect(704, 800, 1344, 1248))
	opts := DefaultBaselineOptions(MosaicExact)
	opts.PVBWeight = math.MaxFloat64
	hp := DefaultHealthPolicy()
	opts.Health = &hp
	run, err := p.OptimizeBaseline(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	nonFinite := run.AbortReason == obs.HealthNonFiniteCost || run.AbortReason == obs.HealthNonFiniteGrad
	if !run.Aborted || !nonFinite || run.Converged {
		t.Fatalf("aborted=%v reason=%q converged=%v after %d iterations; want a non-finite abort, not converged",
			run.Aborted, run.AbortReason, run.Converged, run.Iterations)
	}
}

// TestRunEventsCarryRunID runs a coarse-to-fine level-set job and a
// tiled job through one traced pipeline, under a watchdog that flags
// every iteration without aborting. Every iteration, corner,
// level_switch and health event must carry its own run's id: the
// session id for the level-set job (its coarse-grid corner events
// included), "<job>.t<n>" for tile runs; the tile_* and stitch_pass
// events carry the tiled job's id.
func TestRunEventsCarryRunID(t *testing.T) {
	sink := NewCollectorTraceSink()
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	chip, err := layouts.Chip(2, 2, []string{"B1", "B4"})
	if err != nil {
		t.Fatal(err)
	}
	hp := DefaultHealthPolicy()
	hp.StallWindow = 1
	hp.StallEpsilon = 1e9 // every iteration after the first is a stall
	hp.AbortOnUnhealthy = false
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 4
	opts.Tolerance = 0
	opts.MultiResFactor = 2
	opts.Health = &hp

	if _, err := p.OptimizeLevelSet(Benchmark("B1"), opts); err != nil {
		t.Fatal(err)
	}
	mono := sink.Events()
	if _, err := p.OptimizeTiled(chip, TileOptions{HaloNM: 256, Core: opts, StitchPasses: 1, StitchIters: 2}); err != nil {
		t.Fatal(err)
	}
	tiled := sink.Events()[len(mono):]

	// spanTrace is the id on the run's job span.
	spanTrace := func(events []TraceEvent, name string) string {
		for _, e := range events {
			if e.Type == EventSpan && e.Name == name {
				return e.Trace
			}
		}
		t.Fatalf("no %s span", name)
		return ""
	}
	runScoped := func(e TraceEvent) bool {
		switch e.Type {
		case EventIteration, EventCorner, EventLevelSwitch, EventHealth:
			return true
		}
		return false
	}

	session := spanTrace(mono, "optimize.levelset")
	seen := map[string]int{}
	for _, e := range mono {
		if !runScoped(e) {
			continue
		}
		seen[e.Type]++
		if e.Type == EventCorner && e.N < p.GridSize() {
			seen["coarse corner"]++
		}
		if e.Trace != session {
			t.Errorf("level-set job: %s event carries trace %q, want the session id %q", e.Type, e.Trace, session)
		}
	}
	for _, kind := range []string{EventIteration, EventCorner, "coarse corner", EventLevelSwitch, EventHealth} {
		if seen[kind] == 0 {
			t.Errorf("level-set job: no %s events (got %v)", kind, seen)
		}
	}

	job := spanTrace(tiled, "optimize.tiled")
	if job == session {
		t.Fatalf("tiled job reuses the level-set session id %q", job)
	}
	seen = map[string]int{}
	for _, e := range tiled {
		switch {
		case runScoped(e):
			seen[e.Type]++
			if obs.ParentRunID(e.Trace) != job {
				t.Errorf("tiled job: %s event carries trace %q, want %s.t<n>", e.Type, e.Trace, job)
			}
		case e.Type == EventTileStart, e.Type == EventTileDone, e.Type == EventStitchPass:
			seen[e.Type]++
			if e.Trace != job {
				t.Errorf("tiled job: %s event carries trace %q, want %q", e.Type, e.Trace, job)
			}
		}
	}
	for _, kind := range []string{EventIteration, EventCorner, EventLevelSwitch, EventHealth, EventTileStart, EventTileDone} {
		if seen[kind] == 0 {
			t.Errorf("tiled job: no %s events (got %v)", kind, seen)
		}
	}
}

// TestRunSinkDoesNotOutliveRun: a run leaves its leased session's trace
// context as the pipeline set it, so a later call leasing that session
// emits its corner events into the pipeline's sink.
func TestRunSinkDoesNotOutliveRun(t *testing.T) {
	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 2
	opts.Tolerance = 0
	pipeSink := NewCollectorTraceSink()
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(pipeSink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	res, err := p.OptimizeLevelSet(layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	pipeBefore := pipeSink.Len()
	if _, err := p.Evaluate(layout, res.Mask, 0); err != nil {
		t.Fatal(err)
	}
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
