package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Dumper captures a postmortem bundle for a run on demand, returning
// the bundle directory. The flight recorder (internal/obs/recorder)
// implements it; the HTTP layer depends only on this interface so obs
// does not import the recorder package.
type Dumper interface {
	Capture(runID, reason string) (string, error)
}

// Handler returns the observability endpoint for long-running commands:
//
//	/metrics             plain-text metrics dump (sorted `name value` lines)
//	/debug/vars          expvar JSON (the registry publishes itself here)
//	/debug/pprof/*       the standard pprof profiles
//	/healthz             liveness JSON (status, uptime, goroutines)
//	/runs                JSON snapshot of in-flight + recent runs
//	                     (?phase=running|done|cancelled filters, ?limit=N caps)
//	/runs/{id}           one run's detail incl. its iteration series tail
//	/runs/{id}/events    SSE live event stream (?types=a,b filters kinds)
//	/runs/{id}/dump      POST: capture a postmortem bundle (?reason=... tags it)
//
// runs and bus are required; dumper is optional: with a nil Dumper the
// dump endpoint answers 503. The handler uses its own mux, so mounting
// it does not disturb the process default mux (importing
// net/http/pprof also registers on http.DefaultServeMux; commands using
// Handler never serve that mux).
func Handler(r *Registry, runs *RunRegistry, bus *Bus, dumper Dumper) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"status":     "ok",
			"uptime_s":   time.Since(start).Seconds(),
			"goroutines": runtime.NumGoroutine(),
		})
	})

	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, req *http.Request) {
		list := runs.Runs()
		q := req.URL.Query()
		if phase := q.Get("phase"); phase != "" {
			if phase != PhaseRunning && phase != PhaseDone && phase != PhaseCancelled {
				http.Error(w, fmt.Sprintf("unknown phase %q", phase), http.StatusBadRequest)
				return
			}
			kept := list[:0]
			for _, st := range list {
				if st.Phase == phase {
					kept = append(kept, st)
				}
			}
			list = kept
		}
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
				return
			}
			if n < len(list) {
				list = list[:n]
			}
		}
		writeJSON(w, map[string]any{"runs": list})
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		st, tail, ok := runs.Run(req.PathValue("id"))
		if !ok {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, map[string]any{"run": st, "iterations": tail})
	})
	mux.HandleFunc("GET /runs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		serveSSE(w, req, bus)
	})
	mux.HandleFunc("POST /runs/{id}/dump", func(w http.ResponseWriter, req *http.Request) {
		if dumper == nil {
			http.Error(w, "flight recorder not enabled", http.StatusServiceUnavailable)
			return
		}
		id := req.PathValue("id")
		if _, _, ok := runs.Run(id); !ok {
			http.NotFound(w, req)
			return
		}
		reason := req.URL.Query().Get("reason")
		if reason == "" {
			reason = "dump"
		}
		dir, err := dumper.Capture(id, reason)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"run": id, "bundle": dir})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// serveSSE streams the bus to one client as Server-Sent Events,
// restricted to the run id in the path (tile sub-runs of that id
// included) and, with ?types=a,b, to those event kinds. Each event goes
// out as `event: <type>` + `data: <event JSON>`; whenever this client's
// ring dropped events since the last write, a `drops` event reports the
// cumulative count. The stream ends when the client disconnects or the
// subscription closes (server shutdown).
func serveSSE(w http.ResponseWriter, req *http.Request, bus *Bus) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	id := req.PathValue("id")
	var types []string
	if q := req.URL.Query().Get("types"); q != "" {
		types = strings.Split(q, ",")
	}
	sub := bus.Subscribe(1024, types...)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// The hello event carries the subscription id so a reconnecting
	// client can tell a fresh subscription (drops reset) from a resumed
	// one, and the drop count at attach time (always 0 for a new ring).
	fmt.Fprintf(w, "event: hello\ndata: {\"run\":%q,\"subscription\":%d,\"drops\":%d}\n\n",
		id, sub.ID(), sub.Drops())
	flusher.Flush()

	var reported int64
	for {
		e, ok := sub.Next(req.Context())
		if !ok {
			return
		}
		if !runMatches(id, e.Trace) {
			continue
		}
		data, err := json.Marshal(e)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		if d := sub.Drops(); d != reported {
			reported = d
			fmt.Fprintf(w, "event: drops\ndata: {\"drops\":%d}\n\n", d)
		}
		flusher.Flush()
	}
}

// runMatches reports whether an event's trace id belongs to run id —
// the run itself or one of its tile sub-runs.
func runMatches(id, trace string) bool {
	return trace == id || ParentRunID(trace) == id
}

// Server is a handle on a running observability endpoint. It owns the
// listener and the serve goroutine; Shutdown drains in-flight requests
// (closing active SSE streams) and surfaces any serve error that was
// not the orderly ErrServerClosed.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{}
	err  error // serve error other than ErrServerClosed; set before done closes
	// stopConns cancels the base context every request context derives
	// from. SSE handlers block on that context, so plain
	// http.Server.Shutdown would wait on them forever; cancelling first
	// lets the streams end and Shutdown complete promptly.
	stopConns context.CancelFunc
	// stopSampler stops the runtime sampler Serve started and removes
	// its gauges from the registry; bus is unregistered alongside it so
	// a Serve/Shutdown cycle leaves the registry as it found it.
	stopSampler func()
	bus         *Bus
}

// release undoes the registry side effects of Serve: the runtime
// sampler's gauges and the bus counters come back out, so repeated
// Serve/Shutdown cycles don't accumulate or double-publish metrics.
// Idempotent (the sampler stop is once-guarded, metric removal is
// deletion by name).
func (s *Server) release() {
	s.stopSampler()
	s.bus.Unregister()
}

// Serve starts the observability endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") in a background goroutine, publishing the registry to
// expvar under "lsopc" and starting a runtime sampler that feeds the
// registry's runtime.* gauges for as long as the server runs. runs and
// bus are required, dumper is optional (see Handler). Shutdown/Close
// stop the sampler and unregister its gauges and the bus counters, so
// Serve/Shutdown cycles leave the registry clean. A serve failure after
// startup is logged to stderr and retrievable via Err/Shutdown.
func Serve(addr string, r *Registry, runs *RunRegistry, bus *Bus, dumper Dumper) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	r.PublishExpvar("lsopc")
	connCtx, stopConns := context.WithCancel(context.Background())
	s := &Server{
		srv: &http.Server{
			Handler:     Handler(r, runs, bus, dumper),
			BaseContext: func(net.Listener) context.Context { return connCtx },
		},
		addr:        ln.Addr().String(),
		done:        make(chan struct{}),
		stopConns:   stopConns,
		stopSampler: StartRuntimeSampler(r, 5*time.Second),
		bus:         bus,
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
			fmt.Fprintf(os.Stderr, "obs: serve %s: %v\n", s.addr, err)
		}
	}()
	return s, nil
}

// Addr returns the bound address, which matters when Serve was asked
// for port 0.
func (s *Server) Addr() string { return s.addr }

// Err returns the serve error, if any, once the serve loop has exited
// (nil while still serving or after an orderly shutdown).
func (s *Server) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests get until ctx expires, active SSE streams are closed. It
// waits for the serve goroutine to exit and returns the first of the
// shutdown error or a non-orderly serve error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopConns()
	s.release()
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	if err != nil {
		return err
	}
	return s.err
}

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error {
	s.stopConns()
	s.release()
	err := s.srv.Close()
	<-s.done
	if err != nil {
		return err
	}
	return s.err
}
