// Package lsopc is the public API of the level-set ILT mask-optimization
// library, a from-scratch Go reproduction of "A GPU-enabled Level Set
// Method for Mask Optimization" (Yu, Chen, Ma, Yu — DATE 2021).
//
// The package ties the substrates together behind a Pipeline: pick a
// Preset (resolution/quality trade-off), optimize a layout with the
// paper's level-set method or one of the pixel-based baselines, and
// evaluate the result with the ICCAD 2013 contest metrics.
//
//	pipe, _ := lsopc.NewPipeline(lsopc.PresetFast, lsopc.GPUEngine())
//	layout := lsopc.Benchmark("B4")
//	run, _ := pipe.OptimizeLevelSet(layout, lsopc.DefaultLevelSetOptions())
//	fmt.Println(run.Report)
package lsopc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lsopc/internal/core"
	"lsopc/internal/engine"
	"lsopc/internal/geom"
	"lsopc/internal/grid"
	"lsopc/internal/layouts"
	"lsopc/internal/litho"
	"lsopc/internal/metrics"
	"lsopc/internal/obs"
	"lsopc/internal/obs/recorder"
	"lsopc/internal/pixelilt"
	"lsopc/internal/procwin"
	"lsopc/internal/rt"
	"lsopc/internal/solve"
	"lsopc/internal/tiling"
)

// Re-exported types so downstream code only imports this package.
type (
	// Layout is a rectilinear design (see the GLP format in README).
	Layout = geom.Layout
	// Field is a dense 2-D image (masks, resist images, ψ).
	Field = grid.Field
	// Report carries the contest metrics of one evaluated mask.
	Report = metrics.Report
	// LevelSetOptions configures the paper's optimizer (Algorithm 1).
	LevelSetOptions = core.Options
	// LevelSetResult is the optimizer outcome with its history trace.
	LevelSetResult = core.Result
	// BaselineVariant selects a pixel-based baseline algorithm.
	BaselineVariant = pixelilt.Variant
	// Engine is the execution engine (CPU serial / GPU-style parallel).
	Engine = engine.Engine
	// BenchmarkSpec describes one ICCAD-2013-style benchmark.
	BenchmarkSpec = layouts.Spec
	// TraceSink receives structured trace events (see internal/obs).
	TraceSink = obs.Sink
	// TraceEvent is one structured trace event.
	TraceEvent = obs.Event
	// MetricsRegistry is a named set of counters/gauges/histograms.
	MetricsRegistry = obs.Registry
	// HealthPolicy configures the numerical-health watchdog (NaN/Inf
	// detection, stall and divergence windows, early abort).
	HealthPolicy = obs.HealthPolicy
	// TileOptions configures a tiled full-chip optimization (halo
	// width, worker count, per-tile schedule, stitch budget).
	TileOptions = tiling.Options
	// TiledResult is a completed tiled optimization: the chip-scale
	// mask/ψ plus per-tile stats and seam convergence.
	TiledResult = tiling.Result
	// TileStat is the per-tile outcome inside a TiledResult.
	TileStat = tiling.TileStat
	// TileGrid is the tile decomposition (windows, cores, halo).
	TileGrid = tiling.Grid
	// TileAbortError reports the tile whose watchdog abort failed a
	// tiled run (errors.As-compatible).
	TileAbortError = tiling.TileAbortError
	// Checkpoint is the resumable state of a cancelled optimization
	// (level-set or baseline): the evolving field, iteration position,
	// step scale and watchdog windows. See internal/solve.
	Checkpoint = solve.Checkpoint
	// CancelledError is the error a cancelled optimization returns; it
	// carries the Checkpoint and unwraps to the context's error
	// (errors.Is(err, context.Canceled) works, errors.As recovers it).
	CancelledError = solve.Cancelled
)

// Trace event types emitted through a TraceSink.
const (
	EventIteration = obs.EventIteration // one optimizer step
	EventCorner    = obs.EventCorner    // one per-corner simulate span
	EventPlanCache = obs.EventPlanCache // one FFT plan-cache lookup
	EventPool      = obs.EventPool      // one field-pool lease/release
	EventSpan      = obs.EventSpan      // one pipeline job span
	EventProgress  = obs.EventProgress  // free-form progress line
	EventHealth    = obs.EventHealth    // one numerical-health verdict
	// EventLevelSwitch marks one coarse-to-fine resolution hand-off.
	EventLevelSwitch = obs.EventLevelSwitch
	// EventTileStart marks one tile optimization being picked up.
	EventTileStart = obs.EventTileStart
	// EventTileDone marks one tile optimization completing.
	EventTileDone = obs.EventTileDone
	// EventStitchPass summarizes one halo-stitching consistency pass.
	EventStitchPass = obs.EventStitchPass
	// EventCancelled marks a run observing its context cancellation.
	EventCancelled = obs.EventCancelled
	// EventCheckpoint marks a resumable checkpoint being captured.
	EventCheckpoint = obs.EventCheckpoint
	// EventCapture marks the flight recorder writing a postmortem
	// bundle (Msg = trigger reason, Name = bundle directory).
	EventCapture = obs.EventCapture
)

// WriteCheckpoint serialises a checkpoint to w (gob encoding).
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error { return solve.WriteCheckpoint(w, cp) }

// ReadCheckpoint deserialises a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) { return solve.ReadCheckpoint(r) }

// SaveCheckpoint writes a checkpoint file (atomic rename).
func SaveCheckpoint(path string, cp *Checkpoint) error { return solve.SaveCheckpoint(path, cp) }

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) { return solve.LoadCheckpoint(path) }

// DefaultHealthPolicy returns the standard watchdog configuration: all
// checks on, abort on the first unhealthy iteration.
func DefaultHealthPolicy() HealthPolicy { return obs.DefaultHealthPolicy() }

// NewJSONLTraceSink returns a sink writing one JSON object per event to
// w, safe for concurrent sessions (events get a total-order sequence
// number under one lock). Flush it when the run ends — Pipeline.Release
// does so for the pipeline's attached sink.
func NewJSONLTraceSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// NewLineTraceSink returns a sink rendering events as human-readable
// lines on w (progress events pass through verbatim).
func NewLineTraceSink(w io.Writer) *obs.LineSink { return obs.NewLineSink(w) }

// NewCollectorTraceSink returns an in-memory sink for tests.
func NewCollectorTraceSink() *obs.CollectorSink { return &obs.CollectorSink{} }

// TeeTraceSink fans events out to all the given sinks (nils skipped).
func TeeTraceSink(sinks ...TraceSink) TraceSink { return obs.TeeSink(sinks) }

// Metrics returns the process-wide default metrics registry that every
// subsystem (FFT plan cache, field pools, optimizer loop, simulator
// corners) records into unconditionally.
func Metrics() *MetricsRegistry { return obs.Default }

// MetricsSnapshot returns a flat name→value copy of the default
// registry (histograms expand to .count/.sum/.le* keys).
func MetricsSnapshot() map[string]float64 { return obs.Default.Snapshot() }

// ServeMetrics starts the observability HTTP endpoint on addr
// (/metrics, /debug/vars, /debug/pprof/*, /healthz) over the default
// registry and returns a handle exposing the bound address and a
// graceful Shutdown. For the live run endpoints (/runs, SSE, dump) use
// ServeLive instead. See DESIGN.md §9 and §13.
func ServeMetrics(addr string) (*ObsServer, error) {
	return obs.Serve(addr, obs.Default, nil, nil, nil)
}

// SetRuntimeTrace installs a process-wide sink for events that have no
// session in scope (plan-cache lookups, pool leases inside bank and
// session construction). Install it before building pipelines to catch
// construction-time events; pass nil to disable. The sink must be safe
// for concurrent use.
func SetRuntimeTrace(s TraceSink) { obs.SetRuntime(s) }

// FlushTrace flushes a sink if it buffers (nil-safe).
func FlushTrace(s TraceSink) error { return obs.Flush(s) }

// Baseline variants, re-exported.
const (
	MosaicFast  = pixelilt.MosaicFast
	MosaicExact = pixelilt.MosaicExact
	RobustOPC   = pixelilt.RobustOPC
	PVOPC       = pixelilt.PVOPC
)

// CPUEngine returns the serial reference engine (the paper's CPU runs).
func CPUEngine() *Engine { return engine.CPU() }

// GPUEngine returns the parallel engine standing in for the paper's
// CUDA acceleration (one worker per core; see DESIGN.md §4).
func GPUEngine() *Engine { return engine.GPU() }

// DefaultLevelSetOptions returns the paper's optimizer configuration.
func DefaultLevelSetOptions() LevelSetOptions { return core.DefaultOptions() }

// DefaultBaselineOptions returns the published schedule for a baseline.
func DefaultBaselineOptions(v BaselineVariant) pixelilt.Options {
	return pixelilt.DefaultOptions(v)
}

// Preset selects the simulation scale. All presets model the same
// 2048×2048 nm field; they differ in pixel pitch, kernel count and
// iteration budget (see EXPERIMENTS.md for the accuracy impact).
type Preset int

const (
	// PresetTest: 128 px @ 16 nm, 4 kernels — unit-test scale.
	PresetTest Preset = iota
	// PresetFast: 512 px @ 4 nm, 8 kernels — the default experiment
	// scale; a full benchmark optimizes in tens of seconds.
	PresetFast
	// PresetPaper: 2048 px @ 1 nm, 24 kernels — the contest's native
	// scale used by the paper (minutes per benchmark per method).
	PresetPaper
)

// PresetCustom marks a pipeline built with NewCustomPipeline (explicit
// grid/pitch/kernels instead of a named scale).
const PresetCustom Preset = -1

// String implements fmt.Stringer.
func (p Preset) String() string {
	switch p {
	case PresetTest:
		return "test"
	case PresetFast:
		return "fast"
	case PresetPaper:
		return "paper"
	case PresetCustom:
		return "custom"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// ParsePreset converts a flag string to a Preset.
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "test":
		return PresetTest, nil
	case "fast":
		return PresetFast, nil
	case "paper":
		return PresetPaper, nil
	}
	return 0, fmt.Errorf("lsopc: unknown preset %q (want test|fast|paper)", s)
}

// params returns grid size, pixel pitch (nm) and kernel count.
func (p Preset) params() (gridSize int, pixelNM float64, kernels int, err error) {
	switch p {
	case PresetTest:
		return 128, 16, 4, nil
	case PresetFast:
		return 512, 4, 8, nil
	case PresetPaper:
		return 2048, 1, 24, nil
	default:
		return 0, 0, 0, fmt.Errorf("lsopc: invalid preset %d", int(p))
	}
}

// Pipeline is a cheap, concurrency-safe handle over one immutable
// resource bank: the SOCS kernel banks, FFT plans and rasterised-target
// cache derived once for its preset. All per-job mutable state lives in
// Sessions leased from the pipeline — OptimizeLevelSet, OptimizeBaseline,
// Evaluate, PrintedImages and ProcessWindow each acquire a session
// internally, so any number of goroutines may call them concurrently on
// one Pipeline; memory stays bounded by the number of simultaneous jobs,
// and idle session scratch is recycled through the shared pool.
type Pipeline struct {
	preset  Preset
	eng     *engine.Engine
	cfg     litho.Config
	res     *rt.Bank
	metrics metrics.Config

	// Observability: an optional trace sink shared by every session the
	// pipeline leases, and a counter assigning each session a stable
	// trace id ("s1", "s2", …) so events from concurrent jobs through
	// the shared sink stay distinguishable.
	sink     obs.Sink
	health   *obs.HealthPolicy
	flight   *recorder.Recorder
	traceSeq atomic.Int64

	mu   sync.Mutex
	free []*Session // idle sessions on p.eng, reused by Session()
	root *Session   // lazy never-closed session backing Simulator()
}

// PipelineOption configures optional pipeline behaviour.
type PipelineOption func(*Pipeline)

// WithTraceSink attaches a trace sink to the pipeline: every session it
// leases emits iteration, per-corner timing and job-span events tagged
// with a per-session trace id. The sink must be safe for concurrent use
// (JSONL and line sinks are). Pipeline.Release flushes it.
func WithTraceSink(s TraceSink) PipelineOption {
	return func(p *Pipeline) { p.sink = s }
}

// WithHealthPolicy attaches a numerical-health watchdog policy to the
// pipeline: every optimization it runs (level-set and pixel baselines)
// inherits the policy unless the per-run options carry their own.
// Unhealthy iterations emit typed health events to the pipeline's trace
// sink, and with AbortOnUnhealthy the run stops early, reporting
// Aborted/AbortReason in its result.
func WithHealthPolicy(hp HealthPolicy) PipelineOption {
	return func(p *Pipeline) { p.health = &hp }
}

// WithFlightRecorder attaches a flight recorder to the pipeline: every
// watchdog abort (NaN/Inf, stall, divergence — monolithic, multi-res or
// tiled) and every context cancellation triggers a postmortem bundle
// capture, including the run's resumable checkpoint when one exists.
// Captures are once-per-run; failures to capture degrade to a progress
// trace event rather than failing the run. The recorder only captures —
// to also fill its per-run event rings (the bundle's event tail), tee
// it into the pipeline's trace sink:
//
//	rec := lsopc.NewFlightRecorder(lsopc.FlightRecorderConfig{Dir: "flight"})
//	pipe, _ := lsopc.NewPipeline(preset, eng,
//	    lsopc.WithTraceSink(lsopc.TeeTraceSink(fileSink, rec)),
//	    lsopc.WithFlightRecorder(rec))
//
// (ServeLive's Sink() already includes its recorder, so pipelines fed
// from a live server with WithFlightDir just pass live.Recorder() here.)
func WithFlightRecorder(rec *FlightRecorder) PipelineOption {
	return func(p *Pipeline) { p.flight = rec }
}

// NewPipeline builds a pipeline at the given preset on the given engine
// (nil defaults to the serial CPU engine). Construction is cheap after
// the first pipeline at a preset: the kernel banks, FFT plans and other
// derived resources are shared process-wide.
func NewPipeline(p Preset, eng *Engine, opts ...PipelineOption) (*Pipeline, error) {
	gridSize, pixelNM, kernels, err := p.params()
	if err != nil {
		return nil, err
	}
	if eng == nil {
		eng = engine.CPU()
	}
	cfg := litho.DefaultConfig(gridSize, pixelNM)
	cfg.Optics.Kernels = kernels
	res, err := rt.BankFor(cfg.Optics, cfg.DefocusNM, eng)
	if err != nil {
		return nil, err
	}
	pipe := &Pipeline{
		preset:  p,
		eng:     eng,
		cfg:     cfg,
		res:     res,
		metrics: metrics.DefaultConfig(pixelNM),
	}
	for _, opt := range opts {
		opt(pipe)
	}
	return pipe, nil
}

// NewCustomPipeline builds a pipeline at an explicit simulation scale —
// gridSize pixels at pixelNM nm pitch with the given SOCS kernel count —
// instead of a named preset. This is how tiled runs pick a tile-window
// size independent of the preset canvases, and how monolithic reference
// runs cover chip-sized grids. The same process-wide bank sharing as
// NewPipeline applies (banks are keyed by the optics configuration).
func NewCustomPipeline(gridSize int, pixelNM float64, kernels int, eng *Engine, opts ...PipelineOption) (*Pipeline, error) {
	if eng == nil {
		eng = engine.CPU()
	}
	cfg := litho.DefaultConfig(gridSize, pixelNM)
	cfg.Optics.Kernels = kernels
	res, err := rt.BankFor(cfg.Optics, cfg.DefocusNM, eng)
	if err != nil {
		return nil, err
	}
	pipe := &Pipeline{
		preset:  PresetCustom,
		eng:     eng,
		cfg:     cfg,
		res:     res,
		metrics: metrics.DefaultConfig(pixelNM),
	}
	for _, opt := range opts {
		opt(pipe)
	}
	return pipe, nil
}

// TraceSink returns the sink attached with WithTraceSink, or nil.
func (p *Pipeline) TraceSink() TraceSink { return p.sink }

// FlightRecorder returns the recorder attached with WithFlightRecorder,
// or nil.
func (p *Pipeline) FlightRecorder() *FlightRecorder { return p.flight }

// captureAnomaly hands an abort or cancellation to the attached flight
// recorder. A capture failure must not fail the (already troubled) run,
// so it degrades to a progress trace event.
func (p *Pipeline) captureAnomaly(a BundleAnomaly) {
	if p.flight == nil || a.RunID == "" {
		return
	}
	if _, err := p.flight.CaptureAnomaly(a); err != nil && p.sink != nil {
		p.sink.Emit(obs.Event{
			Type:  obs.EventProgress,
			Trace: a.RunID,
			Msg:   fmt.Sprintf("flight recorder: %v", err),
		})
	}
}

// Preset returns the pipeline's preset.
func (p *Pipeline) Preset() Preset { return p.preset }

// Engine returns the pipeline's execution engine.
func (p *Pipeline) Engine() *Engine { return p.eng }

// Resources returns the pipeline's immutable resource bank.
func (p *Pipeline) Resources() *rt.Bank { return p.res }

// Simulator exposes a forward-model simulator for advanced use. The
// returned simulator is owned by the pipeline, lives until the process
// exits, and is NOT safe for concurrent use — concurrent callers should
// lease their own Session instead.
func (p *Pipeline) Simulator() *litho.Simulator {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.root == nil {
		s, err := newSession(p, p.eng)
		if err != nil {
			// The bank validated this exact configuration at pipeline
			// construction, so a session cannot fail to build.
			panic(fmt.Sprintf("lsopc: root session: %v", err))
		}
		p.root = s
	}
	return p.root.sim
}

// GridSize returns the simulation grid edge in pixels.
func (p *Pipeline) GridSize() int { return p.cfg.Optics.GridSize }

// PixelNM returns the simulation pixel pitch in nm.
func (p *Pipeline) PixelNM() float64 { return p.cfg.Optics.PixelNM }

// targetShared rasterises a layout onto the simulation grid through the
// bank's memoized target cache: one rasterization per layout pointer per
// bank, shared by every concurrent job. The returned field is read-only.
func (p *Pipeline) targetShared(l *Layout) (*Field, error) {
	return p.res.Target(l, func() (*grid.Field, error) {
		pitch := int(p.PixelNM())
		if float64(pitch) != p.PixelNM() {
			return nil, fmt.Errorf("lsopc: non-integer pixel pitch %g", p.PixelNM())
		}
		f, err := geom.Rasterize(l, pitch)
		if err != nil {
			return nil, err
		}
		if f.W != p.GridSize() {
			return nil, fmt.Errorf("lsopc: layout canvas %d nm does not match the %d-px grid at %d nm/px",
				l.W, p.GridSize(), pitch)
		}
		return f, nil
	})
}

// Target rasterises a layout onto the pipeline's simulation grid. The
// rasterization is served from the bank's cache; the returned field is a
// private copy the caller may modify.
func (p *Pipeline) Target(l *Layout) (*Field, error) {
	f, err := p.targetShared(l)
	if err != nil {
		return nil, err
	}
	return f.Clone(), nil
}

// Session is one leased unit of per-job mutable state: a simulator
// session on the pipeline's bank plus evaluation scratch. A Session is
// NOT safe for concurrent use — it is the thing you lease one of per
// goroutine. Close returns it to the pipeline for reuse.
type Session struct {
	p       *Pipeline
	eng     *engine.Engine
	sim     *litho.Simulator
	trace   string // per-session trace id ("s1", "s2", …) when tracing
	spec    *grid.CField
	printed *grid.Field
	outer   *grid.Field
	inner   *grid.Field
	closed  bool
}

// newSession builds a session on the given engine.
func newSession(p *Pipeline, eng *engine.Engine) (*Session, error) {
	sim, err := litho.NewSession(p.res, p.cfg, eng)
	if err != nil {
		return nil, err
	}
	n := p.GridSize()
	pool := p.res.Pool()
	s := &Session{
		p:       p,
		eng:     eng,
		sim:     sim,
		spec:    pool.CField(n, n),
		printed: pool.Field(n, n),
		outer:   pool.Field(n, n),
		inner:   pool.Field(n, n),
	}
	if p.sink != nil {
		s.trace = fmt.Sprintf("s%d", p.traceSeq.Add(1))
		sim.SetSink(p.sink, s.trace)
	}
	return s, nil
}

// TraceID returns the session's trace id ("" when the pipeline has no
// sink attached).
func (s *Session) TraceID() string { return s.trace }

// traceSpan emits one job-span event to the pipeline's sink.
func (s *Session) traceSpan(name string, start time.Time) {
	if s.p.sink != nil {
		s.p.sink.Emit(obs.Event{
			Type:   obs.EventSpan,
			Trace:  s.trace,
			Name:   name,
			Engine: s.eng.Name(),
			DurNS:  time.Since(start).Nanoseconds(),
		})
	}
}

// Session leases a session on the pipeline's engine, reusing an idle
// one when available (its warm simulator scratch carries over). Close
// the session when the job is done.
func (p *Pipeline) Session() (*Session, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		s.closed = false
		return s, nil
	}
	p.mu.Unlock()
	return newSession(p, p.eng)
}

// SessionOn leases a session scheduled on a specific engine (e.g. one
// sub-engine of an Engine.Split partition). Sessions on engines other
// than the pipeline's return their scratch to the pool on Close instead
// of idling in the pipeline's free list.
func (p *Pipeline) SessionOn(eng *Engine) (*Session, error) {
	if eng == nil || eng == p.eng {
		return p.Session()
	}
	return newSession(p, eng)
}

// Sessions leases n sessions whose engines partition the pipeline's
// workers (Engine.Split), the layout for running n jobs concurrently
// without oversubscribing the machine. Close each session when done.
func (p *Pipeline) Sessions(n int) ([]*Session, error) {
	subs := p.eng.Split(n)
	out := make([]*Session, len(subs))
	for i, sub := range subs {
		s, err := newSession(p, sub)
		if err != nil {
			for _, prev := range out[:i] {
				prev.Close()
			}
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// Close returns the session to its pipeline. Sessions on the pipeline's
// engine idle in the free list with their scratch warm; sessions on
// other engines release their leases back to the pool. Idempotent.
func (s *Session) Close() {
	if s == nil || s.closed {
		return
	}
	s.closed = true
	if s.eng == s.p.eng {
		s.p.mu.Lock()
		s.p.free = append(s.p.free, s)
		s.p.mu.Unlock()
		return
	}
	s.release()
}

// release returns every lease to the pool (used for non-pooled sessions
// and by Pipeline.Release).
func (s *Session) release() {
	pool := s.p.res.Pool()
	s.sim.Release()
	pool.PutCField(s.spec)
	pool.PutField(s.printed)
	pool.PutField(s.outer)
	pool.PutField(s.inner)
	s.spec, s.printed, s.outer, s.inner = nil, nil, nil, nil
}

// Release drains the pipeline's idle sessions (including the Simulator()
// session), returning their scratch to the shared pool, and flushes the
// attached trace sink so buffered events reach their writer. The
// pipeline remains usable; the bank itself is shared and unaffected.
// Release is idempotent: a second call with nothing left to drain is a
// no-op (beyond a harmless re-flush of the empty sink buffer).
func (p *Pipeline) Release() {
	p.mu.Lock()
	free := p.free
	root := p.root
	p.free, p.root = nil, nil
	p.mu.Unlock()
	for _, s := range free {
		s.release()
	}
	if root != nil {
		root.closed = true
		root.release()
	}
	obs.Flush(p.sink)
}

// Engine returns the engine the session schedules on.
func (s *Session) Engine() *Engine { return s.eng }

// Simulator exposes the session's forward model.
func (s *Session) Simulator() *litho.Simulator { return s.sim }

// RunResult is a complete optimize-and-evaluate outcome.
type RunResult struct {
	Method  string
	Mask    *Field
	Report  Report
	Elapsed time.Duration
	// LevelSet holds the optimizer trace when the level-set method ran
	// (nil for baselines).
	LevelSet *LevelSetResult
	// Baseline holds the baseline trace when a baseline ran.
	Baseline *pixelilt.Result
}

// OptimizeLevelSet runs the paper's optimizer on the layout and
// evaluates the resulting mask. Safe to call concurrently (each call
// leases its own session).
func (p *Pipeline) OptimizeLevelSet(l *Layout, opts LevelSetOptions) (*RunResult, error) {
	return p.OptimizeLevelSetContext(context.Background(), l, opts)
}

// OptimizeLevelSetContext is OptimizeLevelSet under a context: cancel
// it and the run stops at the next iteration boundary, returning a
// *CancelledError whose Checkpoint ResumeLevelSet continues from.
func (p *Pipeline) OptimizeLevelSetContext(ctx context.Context, l *Layout, opts LevelSetOptions) (*RunResult, error) {
	s, err := p.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.OptimizeLevelSetContext(ctx, l, opts)
}

// ResumeLevelSet continues a cancelled level-set run from its
// checkpoint. opts must be the options of the original run; the result
// then matches the uninterrupted run bit-for-bit.
func (p *Pipeline) ResumeLevelSet(ctx context.Context, l *Layout, opts LevelSetOptions, cp *Checkpoint) (*RunResult, error) {
	s, err := p.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.optimizeLevelSet(ctx, l, opts, cp)
}

// OptimizeLevelSet runs the paper's optimizer on this session. When the
// pipeline carries a trace sink and opts.Sink is nil, the run inherits
// the pipeline's sink under this session's trace id. With
// opts.MultiResFactor > 1 the run follows the coarse-to-fine schedule
// (core.RunMultiResolution) on truncated kernel banks sharing this
// pipeline's resources.
func (s *Session) OptimizeLevelSet(l *Layout, opts LevelSetOptions) (*RunResult, error) {
	return s.OptimizeLevelSetContext(context.Background(), l, opts)
}

// OptimizeLevelSetContext is OptimizeLevelSet under a context (see the
// Pipeline method of the same name).
func (s *Session) OptimizeLevelSetContext(ctx context.Context, l *Layout, opts LevelSetOptions) (*RunResult, error) {
	return s.optimizeLevelSet(ctx, l, opts, nil)
}

// optimizeLevelSet runs or resumes the level-set optimizer on this
// session.
func (s *Session) optimizeLevelSet(ctx context.Context, l *Layout, opts LevelSetOptions, cp *Checkpoint) (*RunResult, error) {
	target, err := s.p.targetShared(l)
	if err != nil {
		return nil, err
	}
	if opts.Sink == nil && s.p.sink != nil {
		opts.Sink = s.p.sink
		opts.TraceID = s.trace
	}
	if opts.Health == nil {
		opts.Health = s.p.health
	}
	start := time.Now()
	var res *LevelSetResult
	if cp != nil {
		res, err = core.Resume(ctx, s.sim, target, opts, cp)
	} else {
		res, err = core.RunMultiResolution(ctx, s.sim, target, opts)
	}
	if err != nil {
		var cerr *CancelledError
		if errors.As(err, &cerr) {
			s.p.captureAnomaly(BundleAnomaly{
				RunID: opts.TraceID, Reason: "cancelled", Checkpoint: cerr.Checkpoint,
			})
		}
		return nil, err
	}
	if res.Aborted {
		s.p.captureAnomaly(BundleAnomaly{
			RunID: opts.TraceID, Reason: res.AbortReason, Checkpoint: res.AbortCheckpoint,
		})
	}
	elapsed := time.Since(start)
	s.traceSpan("optimize.levelset", start)
	report, err := s.Evaluate(l, res.Mask, elapsed)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Method:   "level-set",
		Mask:     res.Mask,
		Report:   report,
		Elapsed:  elapsed,
		LevelSet: res,
	}, nil
}

// OptimizeTiled optimizes a full-chip layout larger than the pipeline's
// simulation window by tile decomposition with overlap-halo stitching
// (see internal/tiling and DESIGN.md §11): the chip is split into
// core+halo tiles the size of this pipeline's grid, tiles run
// concurrently on sessions sharing the pipeline's resource bank, and
// stitch passes blend ψ across seams and re-optimize disagreeing tiles
// until seams converge. The result's Mask/Psi are chip-resolution
// (chip extent ÷ pipeline pitch). The run inherits the pipeline's trace
// sink (events tagged with a fresh job id, per-tile runs as
// "<job>.t<n>") and health policy; a watchdog-aborted tile fails the
// whole run with a *TileAbortError. Safe to call concurrently.
func (p *Pipeline) OptimizeTiled(l *Layout, opts TileOptions) (*TiledResult, error) {
	return p.OptimizeTiledContext(context.Background(), l, opts)
}

// OptimizeTiledContext is OptimizeTiled under a context: cancel it and
// in-flight tiles stop at their next iteration boundary, queued tiles
// and pending stitch passes are skipped, and the error unwraps to the
// context's error. Tiled runs are not checkpointable — a re-run repeats
// the interrupted pass.
func (p *Pipeline) OptimizeTiledContext(ctx context.Context, l *Layout, opts TileOptions) (*TiledResult, error) {
	if opts.Sink == nil && p.sink != nil {
		opts.Sink = p.sink
		opts.TraceID = fmt.Sprintf("s%d", p.traceSeq.Add(1))
	}
	if opts.Health == nil {
		opts.Health = p.health
	}
	start := time.Now()
	res, err := tiling.Optimize(ctx, p.res, p.cfg, p.eng, l, opts)
	if err != nil {
		var terr *TileAbortError
		var cerr *CancelledError
		switch {
		case errors.As(err, &terr):
			p.captureAnomaly(BundleAnomaly{
				RunID:      terr.Trace,
				Reason:     terr.Reason,
				Tile:       terr.Tile + 1,
				Window:     fmt.Sprintf("%d,%d-%d,%d", terr.Window.X0, terr.Window.Y0, terr.Window.X1, terr.Window.Y1),
				Checkpoint: terr.Checkpoint,
			})
		case errors.As(err, &cerr):
			p.captureAnomaly(BundleAnomaly{
				RunID: opts.TraceID, Reason: "cancelled", Checkpoint: cerr.Checkpoint,
			})
		}
		return nil, err
	}
	if opts.Sink != nil {
		opts.Sink.Emit(obs.Event{
			Type: obs.EventSpan, Trace: opts.TraceID, Name: "optimize.tiled",
			Engine: p.eng.Name(), DurNS: time.Since(start).Nanoseconds(),
		})
	}
	return res, nil
}

// DefaultTileHaloNM returns the halo width a tiled run on this pipeline
// derives from its SOCS kernel energy support when TileOptions.HaloNM
// is zero.
func (p *Pipeline) DefaultTileHaloNM() int { return tiling.DefaultHaloNM(p.res, p.eng) }

// OptimizeBaseline runs one of the pixel-based comparison methods.
// Safe to call concurrently (each call leases its own session).
func (p *Pipeline) OptimizeBaseline(l *Layout, opts pixelilt.Options) (*RunResult, error) {
	return p.OptimizeBaselineContext(context.Background(), l, opts)
}

// OptimizeBaselineContext is OptimizeBaseline under a context: cancel
// it and the run stops at the next iteration boundary, returning a
// *CancelledError whose Checkpoint ResumeBaseline continues from.
func (p *Pipeline) OptimizeBaselineContext(ctx context.Context, l *Layout, opts pixelilt.Options) (*RunResult, error) {
	s, err := p.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.OptimizeBaselineContext(ctx, l, opts)
}

// ResumeBaseline continues a cancelled baseline run from its
// checkpoint. opts must be the options of the original run; the result
// then matches the uninterrupted run bit-for-bit.
func (p *Pipeline) ResumeBaseline(ctx context.Context, l *Layout, opts pixelilt.Options, cp *Checkpoint) (*RunResult, error) {
	s, err := p.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.optimizeBaseline(ctx, l, opts, cp)
}

// OptimizeBaseline runs a pixel-based comparison method on this session.
// When the pipeline carries a trace sink and opts.Sink is nil, the run
// inherits the pipeline's sink under this session's trace id.
func (s *Session) OptimizeBaseline(l *Layout, opts pixelilt.Options) (*RunResult, error) {
	return s.OptimizeBaselineContext(context.Background(), l, opts)
}

// OptimizeBaselineContext is OptimizeBaseline under a context (see the
// Pipeline method of the same name).
func (s *Session) OptimizeBaselineContext(ctx context.Context, l *Layout, opts pixelilt.Options) (*RunResult, error) {
	return s.optimizeBaseline(ctx, l, opts, nil)
}

// optimizeBaseline runs or resumes a pixel baseline on this session.
func (s *Session) optimizeBaseline(ctx context.Context, l *Layout, opts pixelilt.Options, cp *Checkpoint) (*RunResult, error) {
	target, err := s.p.targetShared(l)
	if err != nil {
		return nil, err
	}
	if opts.Sink == nil && s.p.sink != nil {
		opts.Sink = s.p.sink
		opts.TraceID = s.trace
	}
	if opts.Health == nil {
		opts.Health = s.p.health
	}
	start := time.Now()
	var res *pixelilt.Result
	if cp != nil {
		res, err = pixelilt.Resume(ctx, s.sim, target, opts, cp)
	} else {
		res, err = pixelilt.Optimize(ctx, s.sim, target, opts)
	}
	if err != nil {
		var cerr *CancelledError
		if errors.As(err, &cerr) {
			s.p.captureAnomaly(BundleAnomaly{
				RunID: opts.TraceID, Reason: "cancelled", Checkpoint: cerr.Checkpoint,
			})
		}
		return nil, err
	}
	if res.Aborted {
		s.p.captureAnomaly(BundleAnomaly{
			RunID: opts.TraceID, Reason: res.AbortReason, Checkpoint: res.AbortCheckpoint,
		})
	}
	elapsed := time.Since(start)
	s.traceSpan("optimize."+opts.Variant.String(), start)
	report, err := s.Evaluate(l, res.Mask, elapsed)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Method:   opts.Variant.String(),
		Mask:     res.Mask,
		Report:   report,
		Elapsed:  elapsed,
		Baseline: res,
	}, nil
}

// Evaluate measures a mask against a layout with the contest checkers:
// EPE at the nominal corner, PV band across the outer/inner corners,
// shape violations, and the Eq. 18 score with the given runtime. Safe to
// call concurrently (each call leases its own session).
func (p *Pipeline) Evaluate(l *Layout, mask *Field, elapsed time.Duration) (Report, error) {
	s, err := p.Session()
	if err != nil {
		return Report{}, err
	}
	defer s.Close()
	return s.Evaluate(l, mask, elapsed)
}

// Evaluate measures a mask against a layout on this session.
func (s *Session) Evaluate(l *Layout, mask *Field, elapsed time.Duration) (Report, error) {
	n := s.sim.GridSize()
	if mask.W != n || mask.H != n {
		return Report{}, fmt.Errorf("lsopc: mask %dx%d does not match grid %d", mask.W, mask.H, n)
	}
	target, err := s.p.targetShared(l)
	if err != nil {
		return Report{}, err
	}
	evalStart := time.Now()
	defer s.traceSpan("evaluate", evalStart)
	s.printCorners(s.printed, s.outer, s.inner, mask)

	probes := metrics.Probes(l, s.p.metrics.EPESpacingNM)
	epe, _ := metrics.EPE(s.printed, probes, s.p.metrics)
	return Report{
		EPEViolations:   epe,
		PVBandNM2:       metrics.PVBand(s.outer, s.inner, s.sim.PixelNM()),
		ShapeViolations: metrics.ShapeViolations(s.printed, target),
		RuntimeSec:      elapsed.Seconds(),
	}, nil
}

// PrintedImages returns the binary printed images at the three corners
// (nominal, outer, inner) for visualisation. Safe to call concurrently
// (each call leases its own session).
func (p *Pipeline) PrintedImages(mask *Field) (nominal, outer, inner *Field) {
	s, err := p.Session()
	if err != nil {
		// Session construction can only fail on an invalid configuration,
		// which NewPipeline already validated.
		panic(fmt.Sprintf("lsopc: session: %v", err))
	}
	defer s.Close()
	return s.PrintedImages(mask)
}

// PrintedImages returns freshly allocated binary printed images at the
// three corners on this session.
func (s *Session) PrintedImages(mask *Field) (nominal, outer, inner *Field) {
	n := s.sim.GridSize()
	nominal = grid.NewField(n, n)
	outer = grid.NewField(n, n)
	inner = grid.NewField(n, n)
	s.printCorners(nominal, outer, inner, mask)
	return nominal, outer, inner
}

// printCorners writes the binary printed images of mask at the three
// corners from one forward call (nominal and outer share one best-focus
// SOCS pass); each image is bit-identical to a per-corner PrintedBinary.
func (s *Session) printCorners(nominal, outer, inner, mask *Field) {
	s.sim.MaskSpectrumInto(s.spec, mask)
	// The aerial images land in the output fields and are thresholded
	// in place.
	corners := [...]litho.Corner{
		{Cond: litho.Nominal, Out: &litho.CornerImages{Aerial: nominal}},
		{Cond: litho.Outer, Out: &litho.CornerImages{Aerial: outer}},
		{Cond: litho.Inner, Out: &litho.CornerImages{Aerial: inner}},
	}
	s.sim.ForwardCorners(s.spec, nil, corners[:])
	for _, f := range [...]*Field{nominal, outer, inner} {
		s.sim.ResistBinary(f, f)
	}
}

// Benchmarks returns the ten ICCAD-2013-style benchmark specs (B1…B10).
func Benchmarks() []BenchmarkSpec { return layouts.All() }

// Benchmark builds the named benchmark layout (B1…B10), panicking on an
// unknown id — use layouts.ByID via BenchmarkByID for error handling.
func Benchmark(id string) *Layout {
	s, err := layouts.ByID(id)
	if err != nil {
		panic(err)
	}
	return s.MustBuild()
}

// BenchmarkByID builds the named benchmark layout, returning an error
// for unknown ids.
func BenchmarkByID(id string) (*Layout, error) {
	s, err := layouts.ByID(id)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// NewField allocates a zero w×h image field.
func NewField(w, h int) *Field { return grid.NewField(w, h) }

// Process-window analysis re-exports.
type (
	// ProcessWindowResult is a focus×dose CD sweep outcome.
	ProcessWindowResult = procwin.Result
	// CutLine selects where the critical dimension is measured.
	CutLine = procwin.CutLine
)

// ProcessWindow sweeps the mask across the contest's focus/dose window
// (±25 nm, ±2 %) on a 6×5 matrix and measures the printed CD at the cut
// (Bossung-curve data). Safe to call concurrently (each call leases its
// own session).
func (p *Pipeline) ProcessWindow(mask *Field, cut CutLine) (*ProcessWindowResult, error) {
	s, err := p.Session()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.ProcessWindow(mask, cut)
}

// ProcessWindow runs the focus/dose sweep on this session's forward
// model: one SOCS pass per focus value on the same banded batch path as
// Evaluate, so the best-focus, unit-dose sample thresholds exactly the
// aerial image behind Evaluate's nominal print. The per-focus kernel
// banks between best focus and the inner corner's defocus come from the
// shared memoized cache.
func (s *Session) ProcessWindow(mask *Field, cut CutLine) (*ProcessWindowResult, error) {
	an, err := procwin.New(procwin.DefaultConfig(s.sim.Config()), s.sim)
	if err != nil {
		return nil, err
	}
	defer s.traceSpan("process_window", time.Now())
	return an.Sweep(mask, cut)
}
