package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// okDumper is a Dumper that always captures, so a dump request's status
// is the handler's own.
type okDumper struct{}

func (okDumper) Capture(runID, reason string) (string, error) {
	return "bundle-" + runID + "-" + reason, nil
}

// sseRecorder is a ResponseRecorder whose first Flush (the SSE hello)
// emits a few events to the bus, for the run, one of its tiles and
// another run, then cancels the request, so the handler's type and run
// filters see events and the stream ends.
type sseRecorder struct {
	*httptest.ResponseRecorder
	hook func()
}

func (r *sseRecorder) Flush() {
	r.ResponseRecorder.Flush()
	if h := r.hook; h != nil {
		r.hook = nil
		h()
	}
}

// FuzzHTTPHandlers sends fuzzed queries and run ids through obs.Handler:
// GET /runs, GET /runs/{id}, GET /runs/{id}/events and POST
// /runs/{id}/dump, on a registry holding a running, a done and a
// cancelled run. Every request must get a 2xx or 4xx answer: no panic,
// no 5xx, no redirect.
func FuzzHTTPHandlers(f *testing.F) {
	for _, s := range []struct{ query, id string }{
		{"", "s1"},
		{"phase=running&limit=1", "s2"},
		{"phase=exploded", "s3"},
		{"limit=-1", "nope"},
		{"limit=99999999999999999999", "s1.t1"},
		{"types=iteration,corner&reason=operator+asked", "s1"},
		{"types=,,&reason=../../etc", "s2"},
		{"phase=done&phase=running&limit=%zz", "a b/c"},
		{"reason=%00%ff&types=%e2%80%ae", "\x00"},
	} {
		f.Add(s.query, s.id)
	}
	reg := NewRegistry()
	runs := NewRunRegistry(reg)
	runs.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 0, Cost: 2})
	runs.Emit(Event{Type: EventSpan, Trace: "s1", Name: "optimize.levelset", DurNS: 10})
	runs.Emit(Event{Type: EventIteration, Trace: "s2", Iter: 0, Cost: 3})
	runs.Emit(Event{Type: EventIteration, Trace: "s3", Iter: 0, Cost: 4})
	runs.Emit(Event{Type: EventCancelled, Trace: "s3", Iter: 0, Msg: "context canceled"})
	bus := NewBus(reg)
	h := Handler(reg, runs, bus, okDumper{})

	f.Fuzz(func(t *testing.T, query, id string) {
		if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
			return // not one clean path segment: the mux redirects to the cleaned path
		}
		// serve sends the request for path, the run id at its {id}
		// segment, unescaped in URL.Path and escaped in RawPath, as a
		// server parses it off the wire.
		serve := func(method, path string, w http.ResponseWriter, ctx context.Context) string {
			req := httptest.NewRequest(method, "/", nil).WithContext(ctx)
			req.URL = &url.URL{
				Path:     strings.Replace(path, "{id}", id, 1),
				RawPath:  strings.Replace(path, "{id}", url.PathEscape(id), 1),
				RawQuery: query,
			}
			req.RequestURI = req.URL.RequestURI()
			h.ServeHTTP(w, req)
			return req.RequestURI
		}
		check := func(method, uri string, code int) {
			if code < 200 || code >= 300 && code < 400 || code >= 500 {
				t.Fatalf("%s %s answered %d", method, uri, code)
			}
		}
		for _, c := range []struct{ method, path string }{
			{"GET", "/runs"},
			{"GET", "/runs/{id}"},
			{"POST", "/runs/{id}/dump"},
		} {
			w := httptest.NewRecorder()
			uri := serve(c.method, c.path, w, context.Background())
			check(c.method, uri, w.Code)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &sseRecorder{ResponseRecorder: httptest.NewRecorder(), hook: func() {
			for _, trace := range []string{id, id + ".t1", "other"} {
				bus.Emit(Event{Type: EventIteration, Trace: trace, Iter: 1, Cost: 1})
				bus.Emit(Event{Type: EventCorner, Trace: trace, Name: "forward"})
			}
			cancel()
		}}
		uri := serve("GET", "/runs/{id}/events", w, ctx)
		check("GET", uri, w.Code)
	})
}
