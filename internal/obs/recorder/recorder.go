// Package recorder is the flight-recorder half of the observability
// layer: a black box that rides along every instrumented run and, when
// something goes wrong, turns the one-line abort reason the watchdog
// leaves behind into a self-contained postmortem bundle.
//
// A Recorder is an obs.Sink. Composed into the trace chain (TeeSink
// alongside the JSONL file, the run registry and the live bus) it keeps
// a bounded ring of each run's most recent typed events — tile sub-runs
// ("<job>.t<n>") fold into their parent job's ring, so a tiled run's
// tail reads as one story — plus a small global ring of periodic Go
// runtime snapshots (the same figures the runtime sampler publishes as
// gauges). The hot path stays within the package's cost contract: after
// a run's ring exists, Emit is a mutex, a map lookup and a copy into
// preallocated storage — no allocations, enforced by a benchmark-gated
// test.
//
// Capture is the anomaly half: on a watchdog abort, a context
// cancellation, or an explicit /runs/{id}/dump request it writes a
// bundle directory containing the event tail (JSONL), a goroutine dump,
// heap and CPU profile slices, the run registry's snapshot, the metrics
// registry, the gob checkpoint of the aborted solver state (so the
// poisoned run is resumable for bisection) and a manifest naming the
// trigger. Capture is once-per-run: concurrent or repeated triggers for
// the same run return the first bundle's path and count as skips.
package recorder

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lsopc/internal/obs"
	"lsopc/internal/solve"
)

// Retention bounds.
const (
	// ringSize is the per-run event ring capacity.
	ringSize = 512
	// maxRuns bounds how many run rings are retained, evicting the
	// oldest-started first.
	maxRuns = 64
	// snapshotRing is the runtime-snapshot ring capacity.
	snapshotRing = 64
)

// Config parameterises a Recorder.
type Config struct {
	// Dir is the directory bundles are written under (created on first
	// capture). Required for Capture; a recorder with Dir == "" still
	// records rings but refuses to capture.
	Dir string
	// SnapshotEvery is the runtime-snapshot sampling period (0 selects
	// 5s, negative disables sampling).
	SnapshotEvery time.Duration
	// CPUProfile is the duration of the CPU profile slice captured into
	// a bundle (0 selects 250ms, negative disables it). Capture blocks
	// for this long while the profiler runs.
	CPUProfile time.Duration
	// Registry receives the obs.recorder.* metrics and is dumped into
	// bundles (nil means the Default registry).
	Registry *obs.Registry
	// Runs, when non-nil, contributes the run registry's snapshot of the
	// captured run (and its tile children) to bundles.
	Runs *obs.RunRegistry
	// Sink, when non-nil, receives one typed capture event per bundle —
	// tee it into the same chain as the recorder so the trace records
	// its own postmortems.
	Sink obs.Sink
}

// Recorder is the flight recorder. Safe for concurrent use by any
// number of emitters and capture triggers.
type Recorder struct {
	cfg Config
	reg *obs.Registry

	mu    sync.Mutex
	rings map[string]*obs.Ring[obs.Event]
	order []string // ring insertion order, for maxRuns eviction

	snapMu   sync.Mutex
	snaps    *obs.Ring[obs.RuntimeStats]
	stopSnap chan struct{}
	snapOnce sync.Once

	// capMu serializes captures; captured maps root run id → bundle dir.
	capMu    sync.Mutex
	captured map[string]string

	mEvents   *obs.Counter // obs.recorder.events
	mCaptures *obs.Counter // obs.recorder.captures
	mSkipped  *obs.Counter // obs.recorder.capture_skipped
	gRuns     *obs.Gauge   // obs.recorder.runs
	gLast     *obs.Gauge   // obs.recorder.last_capture_ns
}

// New builds a recorder and starts its runtime-snapshot sampler (unless
// disabled). Call Close when done with it.
func New(cfg Config) *Recorder {
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 5 * time.Second
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = 250 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	r := &Recorder{
		cfg:       cfg,
		reg:       reg,
		rings:     make(map[string]*obs.Ring[obs.Event]),
		snaps:     obs.NewRing[obs.RuntimeStats](snapshotRing),
		captured:  make(map[string]string),
		stopSnap:  make(chan struct{}),
		mEvents:   reg.Counter("obs.recorder.events"),
		mCaptures: reg.Counter("obs.recorder.captures"),
		mSkipped:  reg.Counter("obs.recorder.capture_skipped"),
		gRuns:     reg.Gauge("obs.recorder.runs"),
		gLast:     reg.Gauge("obs.recorder.last_capture_ns"),
	}
	r.pushSnapshot(obs.SampleRuntime())
	if cfg.SnapshotEvery > 0 {
		go r.sampleLoop(cfg.SnapshotEvery)
	}
	return r
}

// Close stops the runtime-snapshot sampler. Rings and captured bundles
// stay readable; Emit and Capture keep working. Idempotent.
func (r *Recorder) Close() {
	r.snapOnce.Do(func() { close(r.stopSnap) })
}

func (r *Recorder) sampleLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.pushSnapshot(obs.SampleRuntime())
		case <-r.stopSnap:
			return
		}
	}
}

func (r *Recorder) pushSnapshot(st obs.RuntimeStats) {
	r.snapMu.Lock()
	r.snaps.Push(st)
	r.snapMu.Unlock()
}

// snapshots returns the buffered runtime samples, oldest first.
func (r *Recorder) snapshots() []obs.RuntimeStats {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snaps.Items()
}

// rootOf collapses a tile sub-run id to its parent job, so a tiled
// job's ring tells one story. Allocation-free.
func rootOf(id string) string {
	if p := obs.ParentRunID(id); p != "" {
		return p
	}
	return id
}

// Emit implements obs.Sink: the event joins its root run's bounded
// ring. Events with no run id (plan-cache, pool, progress) are
// dropped — the postmortem story is per-run. The steady-state path
// (ring already exists) performs no allocations.
func (r *Recorder) Emit(e obs.Event) {
	if e.Trace == "" {
		return
	}
	root := rootOf(e.Trace)
	r.mu.Lock()
	rg := r.rings[root]
	if rg == nil {
		rg = obs.NewRing[obs.Event](ringSize)
		r.rings[root] = rg
		r.order = append(r.order, root)
		r.gRuns.Set(int64(len(r.rings)))
		for len(r.rings) > maxRuns {
			old := r.order[0]
			r.order = r.order[1:]
			delete(r.rings, old)
			r.gRuns.Set(int64(len(r.rings)))
		}
	}
	rg.Push(e)
	r.mu.Unlock()
	r.mEvents.Inc()
}

// Tail returns a copy of the run's buffered event tail, oldest first
// (nil for an untracked run). id may be a tile sub-run id; the tail is
// the parent job's.
func (r *Recorder) Tail(id string) []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.rings[rootOf(id)]
	if rg == nil {
		return nil
	}
	return rg.Items()
}

// Anomaly describes one capture trigger.
type Anomaly struct {
	// RunID is the run to capture (a tile sub-run id collapses to its
	// parent job for ring lookup and once-per-run accounting, but is
	// recorded verbatim in the manifest).
	RunID string
	// Reason is the trigger: an obs.Health* code, "cancelled", "dump", …
	Reason string
	// Tile is the 1-based aborted tile ordinal for tiled runs (0 none).
	Tile int
	// Window describes the aborted tile's chip window ("" when not
	// tiled).
	Window string
	// Checkpoint, when non-nil, is persisted into the bundle as a
	// resumable gob checkpoint.
	Checkpoint *solve.Checkpoint
}

// Capture implements the obs.Dumper contract: capture the run with a
// bare trigger reason (the /runs/{id}/dump path). See CaptureAnomaly.
func (r *Recorder) Capture(runID, reason string) (string, error) {
	return r.CaptureAnomaly(Anomaly{RunID: runID, Reason: reason})
}

// CaptureAnomaly writes the run's postmortem bundle and returns its
// directory. Captures are once-per-run: a second trigger (concurrent or
// later) returns the first bundle's path and counts as a skip. The
// bundle is written synchronously — expect it to take roughly the
// configured CPU-profile duration.
func (r *Recorder) CaptureAnomaly(a Anomaly) (string, error) {
	if a.RunID == "" {
		return "", fmt.Errorf("recorder: capture without a run id")
	}
	if a.Reason == "" {
		a.Reason = "dump"
	}
	if r.cfg.Dir == "" {
		return "", fmt.Errorf("recorder: no bundle directory configured")
	}
	root := rootOf(a.RunID)
	r.capMu.Lock()
	defer r.capMu.Unlock()
	if dir, ok := r.captured[root]; ok {
		r.mSkipped.Inc()
		return dir, nil
	}
	now := time.Now()
	// The reason's share of the directory name is bounded, so a long
	// operator reason cannot push the name past the file system's limit;
	// the manifest keeps it whole.
	tag := sanitize(a.Reason)
	if len(tag) > maxReasonTag {
		tag = tag[:maxReasonTag]
	}
	dir := filepath.Join(r.cfg.Dir, fmt.Sprintf("%s-%s-%d", sanitize(root), tag, now.UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// One fresh runtime sample so the bundle records the state at
	// capture, not just the last periodic tick.
	r.pushSnapshot(obs.SampleRuntime())
	man, err := r.writeBundle(dir, root, a, now)
	if err != nil {
		return "", fmt.Errorf("recorder: writing bundle %s: %w", dir, err)
	}
	r.captured[root] = dir
	r.mCaptures.Inc()
	r.gLast.Set(now.UnixNano())
	if r.cfg.Sink != nil {
		r.cfg.Sink.Emit(obs.Event{
			Type:  obs.EventCapture,
			Trace: root,
			Name:  dir,
			N:     len(man.Files),
			Tile:  a.Tile,
			Msg:   a.Reason,
		})
	}
	return dir, nil
}

// Captured returns the bundle directory captured for the run, if any.
func (r *Recorder) Captured(id string) (string, bool) {
	r.capMu.Lock()
	defer r.capMu.Unlock()
	dir, ok := r.captured[rootOf(id)]
	return dir, ok
}

// maxReasonTag is the most bytes of the trigger reason a bundle
// directory name carries.
const maxReasonTag = 64

// sanitize keeps bundle directory names to a portable charset.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "run"
	}
	return string(out)
}
