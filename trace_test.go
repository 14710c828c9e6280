package lsopc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"lsopc/internal/core"
	"lsopc/internal/layouts"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/obs/analyze"
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
// run started through the pipeline: B4 on PresetTest stops improving
// after iteration 9, so the watchdog stops the run with a stall at
// iteration 17 and emits a typed health event tagged with the
// session's trace id.
func TestPipelineRunHealthPolicy(t *testing.T) {
	sink := NewCollectorTraceSink()
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	opts := DefaultLevelSetOptions()
	opts.Health = true
	res, err := p.OptimizeLevelSet(Benchmark("B4"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != obs.HealthStall || res.Iterations != 18 {
		t.Fatalf("aborted=%v reason=%q after %d iterations, want a stall abort at iteration 17",
			res.Aborted, res.AbortReason, res.Iterations)
	}
	var health []TraceEvent
	for _, e := range sink.Events() {
		if e.Type == EventHealth {
			health = append(health, e)
		}
	}
	if len(health) != 1 || health[0].Trace == "" || health[0].Msg != obs.HealthStall || health[0].Iter != 17 {
		t.Fatalf("health events = %+v, want one stall at 17 under a session trace id", health)
	}
}

// TestOfflineHealthMatchesLive replays traced runs through analyze,
// which judges each session's iteration events with the live watchdog:
// on a -health run its verdicts equal the run's health events, and on
// the same run traced without the watchdog its first verdict is the
// -health run's abort. B4 stalls at iteration 17; B10 from factor 2
// diverges on the coarse level at iteration 3.
func TestOfflineHealthMatchesLive(t *testing.T) {
	for _, tc := range []struct {
		layout string
		factor int
		iter   int
		reason string
	}{
		{"B4", 1, 17, obs.HealthStall},
		{"B10", 2, 3, obs.HealthDivergence},
	} {
		var first analyze.HealthEvent
		for _, health := range []bool{true, false} {
			var buf bytes.Buffer
			sink := NewJSONLTraceSink(&buf)
			p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultLevelSetOptions()
			opts.MultiResFactor = tc.factor
			opts.Health = health
			res, err := p.OptimizeLevelSet(Benchmark(tc.layout), opts)
			p.Release()
			if err != nil {
				t.Fatal(err)
			}
			run, err := analyze.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Sessions) != 1 {
				t.Fatalf("%s: %d sessions, want 1", tc.layout, len(run.Sessions))
			}
			var replay []analyze.HealthEvent
			for _, s := range run.Sessions {
				replay = s.Health
			}
			if len(replay) == 0 {
				t.Fatalf("%s health=%v: the replay passed the run", tc.layout, health)
			}
			if !health {
				if replay[0] != first {
					t.Errorf("%s: replay without -health first flags %+v, the -health run aborted on %+v", tc.layout, replay[0], first)
				}
				continue
			}
			first = replay[0]
			if len(replay) != len(run.Health) || len(replay) != 1 {
				t.Fatalf("%s: replay %+v, trace health events %+v", tc.layout, replay, run.Health)
			}
			if e := run.Health[0]; e.Iter != first.Iter || e.Msg != first.Reason || e.Cost != first.Cost {
				t.Errorf("%s: replay %+v, trace health event %+v", tc.layout, first, e)
			}
			if first.Iter != tc.iter || first.Reason != tc.reason || res.AbortReason != tc.reason || res.Iterations != tc.iter+1 {
				t.Errorf("%s: abort %q after %d iterations, replay %+v; want %s at %d", tc.layout, res.AbortReason, res.Iterations, first, tc.reason, tc.iter)
			}
		}
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
	opts.Health = true
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

// TestRunEventsCarryRunID runs two coarse-to-fine level-set jobs and a
// tiled job through one traced pipeline. Every iteration, corner,
// level_switch and health event must carry its own run's id: the
// session id for a level-set job (its coarse-grid corner events
// included), "<job>.t<n>" for tile runs; the tile_* and stitch_pass
// events carry the tiled job's id. The first level-set job runs both
// levels; the second is B10, which the watchdog stops on its coarse
// level. The tiled job NaN-poisons the first tile's full-resolution
// target, which its coarse level never sees, so that tile switches
// levels before the watchdog stops it.
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
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 4
	opts.Tolerance = 0
	opts.MultiResFactor = 2
	opts.Health = true

	if _, err := p.OptimizeLevelSet(Benchmark("B1"), opts); err != nil {
		t.Fatal(err)
	}
	mono := sink.Events()
	diverging := opts
	diverging.MaxIter = 50
	if res, err := p.OptimizeLevelSet(Benchmark("B10"), diverging); err != nil || !res.Aborted {
		t.Fatalf("B10 from factor 2: err %v, want a watchdog abort", err)
	}
	aborted := sink.Events()[len(mono):]
	_, err = p.OptimizeTiled(chip, TileOptions{HaloNM: 256, Core: opts, StitchPasses: 1, StitchIters: 2, PoisonTile: 1})
	var terr *TileAbortError
	if !errors.As(err, &terr) {
		t.Fatalf("poisoned tiled job returned %v, want a *TileAbortError", err)
	}
	tiled := sink.Events()[len(mono)+len(aborted):]
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

	seen := map[string]int{}
	sessions := map[string]bool{}
	for _, events := range [][]TraceEvent{mono, aborted} {
		session := spanTrace(events, "optimize.levelset")
		sessions[session] = true
		for _, e := range events {
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
	}
	if len(sessions) != 2 {
		t.Fatalf("the two level-set jobs share a session id: %v", sessions)
	}
	for _, kind := range []string{EventIteration, EventCorner, "coarse corner", EventLevelSwitch, EventHealth} {
		if seen[kind] == 0 {
			t.Errorf("level-set jobs: no %s events (got %v)", kind, seen)
		}
	}

	// The aborted tiled job emits no span; its tile_start events carry
	// its id.
	job := ""
	for _, e := range tiled {
		if e.Type == EventTileStart {
			job = e.Trace
			break
		}
	}
	if job == "" || sessions[job] {
		t.Fatalf("tiled job id %q: missing or reusing a level-set session id", job)
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
