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
	// Outcome is what one optimizer run produced, whatever the method:
	// the evolving field (ψ or θ) it ended on, its binary mask, the
	// per-iteration history, snapshots and the watchdog verdict. See
	// internal/solve.
	Outcome = solve.Outcome
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
	// scale; a default 50-iteration level-set run of one benchmark
	// takes under a second on 2 vCPUs.
	PresetFast
	// PresetPaper: 2048 px @ 1 nm, 24 kernels — the contest's native
	// scale used by the paper; 10 level-set iterations on B4 take about
	// 2 s on 2 vCPUs.
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
// resource bank: the SOCS kernel banks and FFT plans derived once for
// its preset. All per-job mutable state lives in
// sessions the pipeline leases internally: each of OptimizeLevelSet,
// OptimizeBaseline, Evaluate, PrintedImages and ProcessWindow takes its
// own for the length of the call (OptimizeTiled builds one per tile
// worker), so any number of goroutines may call them concurrently on
// one Pipeline; memory stays bounded by the number of simultaneous
// jobs, and idle session scratch is reused by the next call.
type Pipeline struct {
	preset Preset
	eng    *engine.Engine
	cfg    litho.Config
	res    *rt.Bank

	// Observability: an optional trace sink shared by every session the
	// pipeline leases, and a counter assigning each call its own trace
	// id ("s1", "s2", …) so events from concurrent jobs through the
	// shared sink stay distinguishable.
	sink     obs.Sink
	flight   *recorder.Recorder
	traceSeq atomic.Int64

	mu   sync.Mutex
	free []*session // idle sessions, reused by lease
	root *session   // lazy never-returned session backing Simulator()
}

// PipelineOption configures optional pipeline behaviour.
type PipelineOption func(*Pipeline)

// WithTraceSink attaches a trace sink to the pipeline: every call emits
// iteration, per-corner timing and job-span events tagged with a trace
// id of its own. The sink must be safe for concurrent use (JSONL and
// line sinks are). Pipeline.Release flushes it.
func WithTraceSink(s TraceSink) PipelineOption {
	return func(p *Pipeline) { p.sink = s }
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
// from a live server with a flight directory just pass live.Recorder()
// here.)
func WithFlightRecorder(rec *FlightRecorder) PipelineOption {
	return func(p *Pipeline) { p.flight = rec }
}

// NewPipeline builds a pipeline at the given preset on the given engine
// (nil defaults to the serial CPU engine). Construction is cheap after
// the first pipeline at a preset: the kernel banks, FFT plans and other
// derived resources are shared process-wide, as are the engine's helper
// goroutines. To run jobs on a partition of the workers, build one
// pipeline per sub-engine of Engine.Split.
func NewPipeline(p Preset, eng *Engine, opts ...PipelineOption) (*Pipeline, error) {
	gridSize, pixelNM, kernels, err := p.params()
	if err != nil {
		return nil, err
	}
	return newPipeline(p, gridSize, pixelNM, kernels, eng, opts)
}

// NewCustomPipeline builds a pipeline at an explicit simulation scale —
// gridSize pixels at pixelNM nm pitch with the given SOCS kernel count —
// instead of a named preset. This is how tiled runs pick a tile-window
// size independent of the preset canvases, and how monolithic reference
// runs cover chip-sized grids. The same process-wide bank sharing as
// NewPipeline applies (banks are keyed by the optics configuration).
func NewCustomPipeline(gridSize int, pixelNM float64, kernels int, eng *Engine, opts ...PipelineOption) (*Pipeline, error) {
	return newPipeline(PresetCustom, gridSize, pixelNM, kernels, eng, opts)
}

// newPipeline is the constructor behind NewPipeline and
// NewCustomPipeline.
func newPipeline(preset Preset, gridSize int, pixelNM float64, kernels int, eng *Engine, opts []PipelineOption) (*Pipeline, error) {
	if eng == nil {
		eng = engine.CPU()
	}
	cfg := litho.DefaultConfig(gridSize, pixelNM)
	cfg.Optics.Kernels = kernels
	res, err := rt.BankFor(cfg.Optics, cfg.DefocusNM, eng)
	if err != nil {
		return nil, err
	}
	pipe := &Pipeline{preset: preset, eng: eng, cfg: cfg, res: res}
	for _, opt := range opts {
		opt(pipe)
	}
	return pipe, nil
}

// ErrCheckpointMismatch is wrapped by the error of a run handed a
// checkpoint that does not fit it: one taken by another method, at
// another preset's grid, at a resolution level the run's schedule does
// not have, or with another iteration offset or budget.
var ErrCheckpointMismatch = solve.ErrCheckpointMismatch

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
// use the Pipeline methods, each of which leases its own simulator.
func (p *Pipeline) Simulator() *litho.Simulator {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.root == nil {
		s, err := p.newSession()
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

// Target rasterises a layout onto the pipeline's simulation grid into a
// fresh field the caller owns.
func (p *Pipeline) Target(l *Layout) (*Field, error) {
	n := p.GridSize()
	f := grid.NewField(n, n)
	if err := p.rasterize(f, l); err != nil {
		return nil, err
	}
	return f, nil
}

// rasterize renders l into f, a zeroed field on the pipeline's grid. The
// layout's canvas must be the grid at an integer pitch. Optimize and
// Evaluate rasterise into a field leased from the bank's pool, so a job
// allocates no raster.
func (p *Pipeline) rasterize(f *Field, l *Layout) error {
	pitch := int(p.PixelNM())
	if float64(pitch) != p.PixelNM() {
		return fmt.Errorf("lsopc: non-integer pixel pitch %g", p.PixelNM())
	}
	if n := p.GridSize(); l.W != n*pitch || l.H != n*pitch {
		return fmt.Errorf("lsopc: layout canvas %dx%d nm does not match the %d-px grid at %d nm/px",
			l.W, l.H, n, pitch)
	}
	geom.RasterizeInto(f, l, pitch)
	return nil
}

// checkMask rejects a mask that is not on the pipeline's grid.
func (p *Pipeline) checkMask(mask *Field) error {
	if n := p.GridSize(); mask.W != n || mask.H != n {
		return fmt.Errorf("lsopc: mask %dx%d does not match grid %d", mask.W, mask.H, n)
	}
	return nil
}

// session is one lease of per-job mutable state: a simulator session on
// the pipeline's bank plus evaluation scratch. It is not safe for
// concurrent use; each Pipeline call leases one and returns it when it
// is done.
type session struct {
	p       *Pipeline
	sim     *litho.Simulator
	trace   string // the current call's trace id ("s1", "s2", …) when tracing
	spec    *grid.CField
	printed *grid.Field
	outer   *grid.Field
	inner   *grid.Field
}

// newSession builds a session on the pipeline's engine.
func (p *Pipeline) newSession() (*session, error) {
	sim, err := litho.NewSession(p.res, p.cfg, p.eng)
	if err != nil {
		return nil, err
	}
	n := p.GridSize()
	pool := p.res.Pool()
	s := &session{
		p:       p,
		sim:     sim,
		spec:    pool.CField(n, n),
		printed: pool.Field(n, n),
		outer:   pool.Field(n, n),
		inner:   pool.Field(n, n),
	}
	s.newRun()
	return s, nil
}

// nextTrace returns a fresh trace id, "s<n>", for one call's run.
func (p *Pipeline) nextTrace() string { return fmt.Sprintf("s%d", p.traceSeq.Add(1)) }

// newRun gives the session a fresh trace id and installs it with the
// pipeline's sink on the simulator, so every call's events form a run of
// their own. Without a sink it does nothing.
func (s *session) newRun() {
	if s.p.sink != nil {
		s.trace = s.p.nextTrace()
		s.sim.SetSink(s.p.sink, s.trace)
	}
}

// lease hands out an idle session, its simulator scratch warm, or
// builds a new one, under a fresh trace id. Return it with done.
func (p *Pipeline) lease() (*session, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		s.newRun()
		return s, nil
	}
	p.mu.Unlock()
	return p.newSession()
}

// done returns the session to its pipeline's free list.
func (s *session) done() {
	s.p.mu.Lock()
	s.p.free = append(s.p.free, s)
	s.p.mu.Unlock()
}

// release returns every lease to the pool (used by Pipeline.Release).
func (s *session) release() {
	pool := s.p.res.Pool()
	s.sim.Release()
	pool.PutCField(s.spec)
	pool.PutField(s.printed)
	pool.PutField(s.outer)
	pool.PutField(s.inner)
	s.spec, s.printed, s.outer, s.inner = nil, nil, nil, nil
}

// traceSpan emits one job-span event to the pipeline's sink.
func (s *session) traceSpan(name string, start time.Time) {
	if s.p.sink != nil {
		s.p.sink.Emit(obs.Event{
			Type:   obs.EventSpan,
			Trace:  s.trace,
			Name:   name,
			Engine: s.p.eng.Name(),
			DurNS:  time.Since(start).Nanoseconds(),
		})
	}
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
		root.release()
	}
	obs.Flush(p.sink)
}

// RunResult is a complete optimize-and-evaluate outcome: the run's
// Outcome (mask, history, snapshots, watchdog verdict), read the same
// way for every method, and the contest Report of its mask.
type RunResult struct {
	Method string
	Outcome
	Report  Report
	Elapsed time.Duration
}

// OptimizeLevelSet is OptimizeLevelSetContext without a context or a
// checkpoint: a fresh run that cannot be cancelled.
func (p *Pipeline) OptimizeLevelSet(l *Layout, opts LevelSetOptions) (*RunResult, error) {
	return p.OptimizeLevelSetContext(context.Background(), l, opts, nil)
}

// OptimizeLevelSetContext runs the paper's optimizer on the layout and
// evaluates the resulting mask. With opts.MultiResFactor > 1 the run
// follows the coarse-to-fine schedule on truncated kernel banks sharing
// this pipeline's resources. Cancel ctx and the run stops at the next
// iteration boundary, returning a *CancelledError; pass its Checkpoint
// as from, with the same layout and options, to continue the run — the
// result then matches the uninterrupted run bit-for-bit. A nil from
// starts a fresh run; a checkpoint that does not fit the run fails with
// an error wrapping ErrCheckpointMismatch. When the pipeline carries a
// trace sink, the run's events go to it under a trace id of their own.
// Safe to call concurrently.
func (p *Pipeline) OptimizeLevelSetContext(ctx context.Context, l *Layout, opts LevelSetOptions, from *Checkpoint) (*RunResult, error) {
	return p.optimize(l, "level-set", "optimize.levelset",
		func(sim *litho.Simulator, target *Field) (*Outcome, error) {
			return core.Run(ctx, sim, target, opts, from)
		})
}

// OptimizeBaseline is OptimizeBaselineContext without a context or a
// checkpoint: a fresh run that cannot be cancelled.
func (p *Pipeline) OptimizeBaseline(l *Layout, opts pixelilt.Options) (*RunResult, error) {
	return p.OptimizeBaselineContext(context.Background(), l, opts, nil)
}

// OptimizeBaselineContext runs one of the pixel-based comparison methods
// and evaluates the resulting mask. Cancellation, resuming from a
// checkpoint and tracing work as in
// OptimizeLevelSetContext. Safe to call concurrently.
func (p *Pipeline) OptimizeBaselineContext(ctx context.Context, l *Layout, opts pixelilt.Options, from *Checkpoint) (*RunResult, error) {
	method := opts.Variant.String()
	return p.optimize(l, method, "optimize."+method,
		func(sim *litho.Simulator, target *Field) (*Outcome, error) {
			return pixelilt.Optimize(ctx, sim, target, opts, from)
		})
}

// optimize is the run body both optimizers share. It leases a session,
// whose simulator carries the run's trace context, and rasterises the
// target. It hands a cancellation or watchdog abort to the flight
// recorder, emits the job span and evaluates the mask.
func (p *Pipeline) optimize(l *Layout, method, span string,
	run func(sim *litho.Simulator, target *Field) (*Outcome, error)) (*RunResult, error) {
	s, err := p.lease()
	if err != nil {
		return nil, err
	}
	defer s.done()
	target := p.res.Pool().Field(p.GridSize(), p.GridSize())
	defer p.res.Pool().PutField(target)
	if err := p.rasterize(target, l); err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := run(s.sim, target)
	if err != nil {
		var cerr *CancelledError
		if errors.As(err, &cerr) {
			p.captureAnomaly(BundleAnomaly{RunID: s.trace, Reason: "cancelled", Checkpoint: cerr.Checkpoint})
		}
		return nil, err
	}
	if out.Aborted {
		p.captureAnomaly(BundleAnomaly{RunID: s.trace, Reason: out.AbortReason, Checkpoint: out.AbortCheckpoint})
	}
	r := &RunResult{Method: method, Outcome: *out, Elapsed: time.Since(start)}
	s.traceSpan(span, start)
	if r.Report, err = s.evaluate(l, target, r.Mask, r.Elapsed); err != nil {
		return nil, err
	}
	return r, nil
}

// OptimizeTiled is OptimizeTiledContext without a context.
func (p *Pipeline) OptimizeTiled(l *Layout, opts TileOptions) (*TiledResult, error) {
	return p.OptimizeTiledContext(context.Background(), l, opts)
}

// OptimizeTiledContext optimizes a full-chip layout larger than the
// pipeline's simulation window by tile decomposition with overlap-halo
// stitching (see internal/tiling and DESIGN.md §11): the chip is split
// into core+halo tiles the size of this pipeline's grid, tiles run
// concurrently on sessions sharing the pipeline's resource bank, and
// stitch passes blend ψ across seams and re-optimize disagreeing tiles
// until seams converge. The result's Mask/Psi are chip-resolution (chip
// extent ÷ pipeline pitch). The run's events go to the pipeline's trace
// sink, tagged with a fresh job id (per-tile runs as "<job>.t<n>");
// opts.Core.Health is the per-tile watchdog policy, and a
// watchdog-aborted tile fails the whole run with a *TileAbortError. Cancel ctx and in-flight tiles stop at their next
// iteration boundary, queued tiles and pending stitch passes are
// skipped, and the error unwraps to the context's error. Tiled runs are
// not checkpointable — a re-run repeats the interrupted pass. Safe to
// call concurrently.
func (p *Pipeline) OptimizeTiledContext(ctx context.Context, l *Layout, opts TileOptions) (*TiledResult, error) {
	var trace string
	if p.sink != nil {
		trace = p.nextTrace()
	}
	start := time.Now()
	res, err := tiling.Optimize(ctx, p.res, p.cfg, p.eng, l, opts, p.sink, trace)
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
				RunID: trace, Reason: "cancelled", Checkpoint: cerr.Checkpoint,
			})
		}
		return nil, err
	}
	if p.sink != nil {
		p.sink.Emit(obs.Event{
			Type: obs.EventSpan, Trace: trace, Name: "optimize.tiled",
			Engine: p.eng.Name(), DurNS: time.Since(start).Nanoseconds(),
		})
	}
	return res, nil
}

// Evaluate measures a mask against a layout with the contest checkers:
// EPE at the nominal corner, PV band across the outer/inner corners,
// shape violations, and the Eq. 18 score with the given runtime. Safe to
// call concurrently.
func (p *Pipeline) Evaluate(l *Layout, mask *Field, elapsed time.Duration) (Report, error) {
	if err := p.checkMask(mask); err != nil {
		return Report{}, err
	}
	target := p.res.Pool().Field(p.GridSize(), p.GridSize())
	defer p.res.Pool().PutField(target)
	if err := p.rasterize(target, l); err != nil {
		return Report{}, err
	}
	s, err := p.lease()
	if err != nil {
		return Report{}, err
	}
	defer s.done()
	return s.evaluate(l, target, mask, elapsed)
}

// evaluate is Evaluate on a leased session, given the layout's target
// and a mask on the pipeline's grid.
func (s *session) evaluate(l *Layout, target, mask *Field, elapsed time.Duration) (Report, error) {
	evalStart := time.Now()
	defer s.traceSpan("evaluate", evalStart)
	s.printCorners(s.printed, s.outer, s.inner, mask)

	epe, _ := metrics.EPE(s.printed, metrics.Probes(l), s.sim.PixelNM())
	return Report{
		EPEViolations:   epe,
		PVBandNM2:       metrics.PVBand(s.outer, s.inner, s.sim.PixelNM()),
		ShapeViolations: metrics.ShapeViolations(s.printed, target),
		RuntimeSec:      elapsed.Seconds(),
	}, nil
}

// PrintedImages returns freshly allocated binary printed images of the
// mask at the three corners (nominal, outer, inner) for visualisation.
// A mask off the pipeline's grid is an error, as in Evaluate. Safe to
// call concurrently.
func (p *Pipeline) PrintedImages(mask *Field) (nominal, outer, inner *Field, err error) {
	if err := p.checkMask(mask); err != nil {
		return nil, nil, nil, err
	}
	s, err := p.lease()
	if err != nil {
		return nil, nil, nil, err
	}
	defer s.done()
	n := p.GridSize()
	nominal, outer, inner = grid.NewField(n, n), grid.NewField(n, n), grid.NewField(n, n)
	s.printCorners(nominal, outer, inner, mask)
	return nominal, outer, inner, nil
}

// printCorners writes the binary printed images of mask at the three
// corners from one forward call (nominal and outer share one best-focus
// SOCS pass); each image is bit-identical to a per-corner PrintedBinary.
func (s *session) printCorners(nominal, outer, inner, mask *Field) {
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

// Process-window analysis re-exports.
type (
	// ProcessWindowResult is a focus×dose CD sweep outcome.
	ProcessWindowResult = procwin.Result
	// CutLine selects where the critical dimension is measured.
	CutLine = procwin.CutLine
)

// ProcessWindow sweeps the mask across the contest's focus/dose window
// (±25 nm, ±2 %) on a 6×5 matrix and measures the printed CD at the cut
// (Bossung-curve data): one SOCS pass per focus value on the same banded
// batch path as Evaluate, so the best-focus, unit-dose sample
// thresholds exactly the aerial image behind Evaluate's nominal print.
// The per-focus kernel banks between best focus and the inner corner's
// defocus come from the shared memoized cache. Safe to call
// concurrently.
func (p *Pipeline) ProcessWindow(mask *Field, cut CutLine) (*ProcessWindowResult, error) {
	s, err := p.lease()
	if err != nil {
		return nil, err
	}
	defer s.done()
	an, err := procwin.New(s.sim)
	if err != nil {
		return nil, err
	}
	defer s.traceSpan("process_window", time.Now())
	return an.Sweep(mask, cut)
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
