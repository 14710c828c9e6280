package lsopc

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"lsopc/internal/core"
	"lsopc/internal/geom"
	"lsopc/internal/obs"
	"lsopc/internal/obs/analyze"
	"lsopc/internal/obs/recorder"
)

// TestFlightRecorderTiledAbortBundle is the postmortem acceptance gate:
// a tiled run whose poisoned tile trips the watchdog must leave behind
// a complete, manifest-valid bundle — event tail, goroutine dump, heap
// and CPU profiles, resumable checkpoint — and the checkpoint must
// actually resume through core.Run against the reconstructed tile.
func TestFlightRecorderTiledAbortBundle(t *testing.T) {
	flightDir := t.TempDir()
	rec := NewFlightRecorder(FlightRecorderConfig{
		Dir:        flightDir,
		CPUProfile: 60 * time.Millisecond,
	})
	defer rec.Close()

	pipe, err := NewCustomPipeline(64, 16, 4, GPUEngine(),
		WithTraceSink(rec),
		WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()

	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 20
	opts.Health = true

	_, err = pipe.OptimizeTiled(layout, TileOptions{
		HaloNM:     256,
		Core:       opts,
		PoisonTile: 3, // NaN-poison the third tile's target
	})
	if err == nil {
		t.Fatal("poisoned tiled run succeeded")
	}
	var terr *TileAbortError
	if !errors.As(err, &terr) {
		t.Fatalf("error %T %v, want *TileAbortError", err, err)
	}
	if terr.Reason != obs.HealthNonFiniteCost {
		t.Fatalf("abort reason %q, want %q", terr.Reason, obs.HealthNonFiniteCost)
	}
	if terr.Checkpoint == nil {
		t.Fatal("abort carried no checkpoint")
	}

	// The abort must have triggered exactly one capture for the run.
	dir, ok := rec.Captured(terr.Trace)
	if !ok {
		t.Fatalf("no bundle captured for %q", terr.Trace)
	}

	// The bundle must be complete and self-consistent.
	man, err := OpenBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.RunID != terr.Trace || man.Trigger != obs.HealthNonFiniteCost {
		t.Fatalf("manifest identity = %+v", man)
	}
	if man.Tile != terr.Tile+1 || man.Window == "" {
		t.Fatalf("manifest tile attribution = tile %d window %q", man.Tile, man.Window)
	}
	if man.Events < 1 || man.CheckpointIter < 1 {
		t.Fatalf("manifest events=%d checkpoint_iter=%d, want both ≥ 1", man.Events, man.CheckpointIter)
	}
	for _, f := range []string{recorder.EventsFile, recorder.RuntimeFile, recorder.GoroutinesFile, recorder.HeapFile, recorder.CPUFile, recorder.CheckpointFile, recorder.MetricsFile} {
		found := false
		for _, got := range man.Files {
			if got == f {
				found = true
			}
		}
		if !found {
			t.Fatalf("bundle files %v, missing %s (notes: %v)", man.Files, f, man.Notes)
		}
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Fatalf("bundle file %s: err=%v empty=%v", f, err, fi != nil && fi.Size() == 0)
		}
	}

	// The event tail must be readable by the trace toolchain (the same
	// parser behind tracestats -bundle).
	ef, err := os.Open(filepath.Join(dir, recorder.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	run, err := analyze.Parse(ef)
	ef.Close()
	if err != nil {
		t.Fatalf("event tail unreadable by the inspector: %v", err)
	}
	if run.Events != man.Events {
		t.Fatalf("inspector parsed %d events, manifest says %d", run.Events, man.Events)
	}

	// And the checkpoint must resume: rebuild the aborted tile's target
	// from the manifest's window (without the poison) and continue the
	// optimization from the captured state.
	cp, err := LoadCheckpoint(filepath.Join(dir, recorder.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	clip := layout.Clip(terr.Window)
	target, err := geom.Rasterize(clip, 16)
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Health = false
	res, err := core.Run(context.Background(), pipe.Simulator(), target, ropts, cp)
	if err != nil {
		t.Fatalf("resume from bundle checkpoint: %v", err)
	}
	if res.Iterations < cp.Iter {
		t.Fatalf("resumed run reports %d iterations, checkpoint was at %d", res.Iterations, cp.Iter)
	}
}

// labelSnapshotSink captures a labeled goroutine profile from inside a
// run: Emit is invoked on the optimizer goroutine, which executes under
// pprof.Do, so the debug=1 profile must show its run_id/phase labels.
type labelSnapshotSink struct {
	once sync.Once
	buf  bytes.Buffer
}

func (s *labelSnapshotSink) Emit(e obs.Event) {
	if e.Type == obs.EventIteration {
		s.once.Do(func() {
			pprof.Lookup("goroutine").WriteTo(&s.buf, 1)
		})
	}
}

// TestRunGoroutineCarriesPprofLabels deterministically pins the label
// plumbing: during an optimization the driver goroutine is labeled with
// the run id and phase.
func TestRunGoroutineCarriesPprofLabels(t *testing.T) {
	sink := &labelSnapshotSink{}
	pipe, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 3
	if _, err := pipe.OptimizeLevelSet(Benchmark("B4"), opts); err != nil {
		t.Fatal(err)
	}
	prof := sink.buf.String()
	if prof == "" {
		t.Fatal("no goroutine profile captured (no iteration events?)")
	}
	for _, want := range []string{`"run_id":"s1"`, `"phase":"level-set"`} {
		if !bytes.Contains(sink.buf.Bytes(), []byte(want)) {
			t.Fatalf("goroutine profile lacks label %s:\n%s", want, prof)
		}
	}
}

// TestCPUProfileAttributesRunLabels is the sampling-based acceptance
// check: a CPU profile collected across a labeled run must contain
// samples tagged with the run_id label (the run is long enough that the
// 100 Hz sampler lands several samples inside pprof.Do).
func TestCPUProfileAttributesRunLabels(t *testing.T) {
	var sink obs.CollectorSink
	pipe, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(&sink))
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Release()
	layout := Benchmark("B4")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 40
	opts.Tolerance = 0 // keep iterating: the profile needs CPU time

	for attempt := 0; attempt < 3; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		_, rerr := pipe.OptimizeLevelSet(layout, opts)
		pprof.StopCPUProfile()
		if rerr != nil {
			t.Fatal(rerr)
		}
		evs := sink.Events()
		trace := ""
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].Type == obs.EventIteration {
				trace = evs[i].Trace
				break
			}
		}
		if trace == "" {
			t.Fatal("run produced no iteration events")
		}
		zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		// Label keys and values land in the profile's string table only
		// when a sample references them.
		if bytes.Contains(raw, []byte("run_id")) && bytes.Contains(raw, []byte(trace)) {
			return
		}
		opts.MaxIter *= 2 // sampler missed: give it more run to hit
	}
	t.Fatal("CPU profile never attributed samples to the run_id label")
}

// TestPipelineCallsGetTheirOwnRunIDs: two calls on one pipeline are two
// runs, even when the second reuses the first's leased session. Each
// cancelled call's events carry an id of their own, and the flight
// recorder, which captures once per run id, writes a bundle for each.
func TestPipelineCallsGetTheirOwnRunIDs(t *testing.T) {
	events := NewCollectorTraceSink()
	rec := NewFlightRecorder(FlightRecorderConfig{Dir: t.TempDir(), CPUProfile: -1, SnapshotEvery: -1, Sink: events})
	defer rec.Close()
	p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(TeeTraceSink(events, rec)), WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := p.OptimizeLevelSetContext(ctx, Benchmark("B4"), opts, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d on a cancelled context returned %v", i+1, err)
		}
	}
	var cancelled, bundles []string
	for _, e := range events.Events() {
		switch e.Type {
		case EventCancelled:
			cancelled = append(cancelled, e.Trace)
		case EventCapture:
			bundles = append(bundles, e.Trace)
		}
	}
	if len(cancelled) != 2 || cancelled[0] != "s1" || cancelled[1] != "s2" {
		t.Fatalf("cancelled events under run ids %v, want [s1 s2]", cancelled)
	}
	if len(bundles) != 2 || bundles[0] == bundles[1] {
		t.Fatalf("bundles captured for %v, want one per call", bundles)
	}
}

// TestFlightManifestCheckpointIterIsGlobal: a run whose iteration axis
// starts at IterOffset is cancelled; the bundle manifest's
// CheckpointIter is the global iteration of the cancelled event, not
// the iterations the run took.
func TestFlightManifestCheckpointIterIsGlobal(t *testing.T) {
	events := NewCollectorTraceSink()
	rec := NewFlightRecorder(FlightRecorderConfig{Dir: t.TempDir(), CPUProfile: -1, SnapshotEvery: -1, Sink: events})
	defer rec.Close()
	stop := &cancelAtIter{at: 23}
	p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(TeeTraceSink(stop, events, rec)), WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 10
	opts.IterOffset = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop.cancel = cancel
	if _, err := p.OptimizeLevelSetContext(ctx, Benchmark("B4"), opts, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	cancelledAt, bundle := -1, ""
	for _, e := range events.Events() {
		switch e.Type {
		case EventCancelled:
			cancelledAt = e.Iter
		case EventCapture:
			bundle = e.Name
		}
	}
	if cancelledAt != 24 || bundle == "" {
		t.Fatalf("cancelled at %d, bundle %q; want a bundle for a cancellation at 24", cancelledAt, bundle)
	}
	man, err := OpenBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if man.CheckpointIter != cancelledAt {
		t.Fatalf("manifest checkpoint_iter %d, want the cancelled event's global %d", man.CheckpointIter, cancelledAt)
	}
}
