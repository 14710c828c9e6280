package lsopc

import (
	"context"

	"lsopc/internal/obs"
	"lsopc/internal/obs/recorder"
)

// Live-telemetry types, re-exported so downstream code only imports
// this package. See DESIGN.md §13–14.
type (
	// ObsServer is a running observability HTTP endpoint with graceful
	// Shutdown (returned by ServeMetrics and owned by LiveServer).
	ObsServer = obs.Server
	// TraceBus fans trace events out to dynamic subscribers over
	// bounded ring buffers without ever blocking the optimizer.
	TraceBus = obs.Bus
	// TraceSubscription is one consumer's bounded view of a TraceBus.
	TraceSubscription = obs.Subscription
	// RunRegistry folds trace events into live per-run state.
	RunRegistry = obs.RunRegistry
	// RunState is a point-in-time snapshot of one run.
	RunState = obs.RunState
	// RunIterPoint is one point of a run's recent iteration series.
	RunIterPoint = obs.RunIterPoint
	// FlightRecorder keeps per-run event tails and writes postmortem
	// bundles on anomalies (see DESIGN.md §14).
	FlightRecorder = recorder.Recorder
	// FlightRecorderConfig parameterises a FlightRecorder: the bundle
	// directory, the runtime sampling period, the CPU-profile slice, the
	// metrics and run registries and the capture-event sink. Retention
	// is fixed: 512 events per run, 64 runs, 64 runtime samples.
	FlightRecorderConfig = recorder.Config
	// BundleManifest indexes one postmortem bundle directory.
	BundleManifest = recorder.Manifest
	// BundleAnomaly describes one flight-recorder capture trigger.
	BundleAnomaly = recorder.Anomaly
)

// NewFlightRecorder builds a standalone flight recorder writing bundles
// under cfg.Dir (zero values of the other fields pick the defaults
// recorder.Config documents). Attach it to pipelines with WithFlightRecorder, or let
// ServeLive own one via WithFlightDir.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return recorder.New(cfg)
}

// OpenBundle reads and validates a postmortem bundle's manifest.
func OpenBundle(dir string) (*BundleManifest, error) { return recorder.Open(dir) }

// LiveServer bundles the live-telemetry stack: an event bus and run
// registry fed by trace sinks, served over HTTP (/runs, /runs/{id},
// /runs/{id}/events SSE, /runs/{id}/dump, /healthz, plus the
// /metrics·expvar·pprof endpoints). The HTTP server owns a periodic
// runtime sampler feeding process-health gauges; with WithFlightDir the
// server also owns a flight recorder that records every attached run
// and serves on-demand bundle captures. Build one with ServeLive,
// attach Sink() to pipelines (and SetRuntimeTrace), and Shutdown when
// done.
type LiveServer struct {
	bus  *obs.Bus
	runs *obs.RunRegistry
	rec  *recorder.Recorder
	srv  *obs.Server
}

// LiveOption customises ServeLive.
type LiveOption func(*liveConfig)

type liveConfig struct {
	flightDir string
}

// WithFlightDir equips the live server with a flight recorder writing
// postmortem bundles under dir, enabling POST /runs/{id}/dump and
// anomaly captures for pipelines attached via Sink().
func WithFlightDir(dir string) LiveOption {
	return func(c *liveConfig) { c.flightDir = dir }
}

// ServeLive starts the live observability endpoint on addr (":6060",
// "127.0.0.1:0", …) over the default metrics registry. The returned
// server's Sink() must be attached to the pipelines it should observe:
//
//	live, _ := lsopc.ServeLive(":6060", lsopc.WithFlightDir("flight"))
//	defer live.Shutdown(context.Background())
//	lsopc.SetRuntimeTrace(live.Sink())
//	pipe.WithTraceSink(lsopc.TeeTraceSink(jsonlSink, live.Sink()))
//
// With zero attached SSE clients the bus adds no allocations to the
// emit path; slow clients drop oldest events rather than slowing the
// run (see DESIGN.md §13).
func ServeLive(addr string, opts ...LiveOption) (*LiveServer, error) {
	var cfg liveConfig
	for _, o := range opts {
		o(&cfg)
	}
	bus := obs.NewBus(nil)
	runs := obs.NewRunRegistry(nil)
	var rec *recorder.Recorder
	var dumper obs.Dumper
	if cfg.flightDir != "" {
		// The recorder's capture events feed back through the registry
		// (Captures count) and the bus (SSE clients see the bundle land).
		rec = recorder.New(recorder.Config{
			Dir:  cfg.flightDir,
			Runs: runs,
			Sink: obs.TeeSink([]obs.Sink{runs, bus}),
		})
		dumper = rec
	}
	srv, err := obs.Serve(addr, obs.Default, runs, bus, dumper)
	if err != nil {
		if rec != nil {
			rec.Close()
		}
		return nil, err
	}
	return &LiveServer{bus: bus, runs: runs, rec: rec, srv: srv}, nil
}

// Sink returns the sink feeding this server's run registry, event bus
// and (when enabled) flight recorder. Compose it with other sinks via
// TeeTraceSink. The registry is first in the chain so a /runs poll
// triggered by an SSE event always sees that event already folded in.
func (l *LiveServer) Sink() TraceSink {
	if l.rec != nil {
		return obs.TeeSink([]obs.Sink{l.runs, l.bus, l.rec})
	}
	return obs.TeeSink([]obs.Sink{l.runs, l.bus})
}

// Addr returns the bound address (useful with ":0").
func (l *LiveServer) Addr() string { return l.srv.Addr() }

// Runs returns the live run registry.
func (l *LiveServer) Runs() *RunRegistry { return l.runs }

// Bus returns the live event bus (Subscribe for in-process consumers).
func (l *LiveServer) Bus() *TraceBus { return l.bus }

// Recorder returns the flight recorder, or nil when the server was
// built without WithFlightDir.
func (l *LiveServer) Recorder() *FlightRecorder { return l.rec }

// Err surfaces a serve failure, if any (see ObsServer.Err).
func (l *LiveServer) Err() error { return l.srv.Err() }

// Shutdown stops the flight recorder's sampler and gracefully stops the
// HTTP server (which stops the runtime sampler, unregisters its gauges
// and the bus counters, and closes active SSE streams), propagating any
// serve error.
func (l *LiveServer) Shutdown(ctx context.Context) error {
	if l.rec != nil {
		l.rec.Close()
	}
	return l.srv.Shutdown(ctx)
}
