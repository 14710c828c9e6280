// Package rt is the session-based runtime substrate underneath the
// optimizer pipelines: dimension-keyed free lists of field memory (Pool)
// and immutable, concurrency-safe per-preset resource banks (Bank).
//
// The split mirrors how the paper's GPU implementation manages device
// memory. Everything derivable once per optical preset — SOCS kernel
// banks, FFT plans — lives in a Bank shared by every
// concurrent job, while the mutable per-job state (coherent-field
// batches, gradient accumulators, level-set scratch) is leased from a
// Pool and returned when the job's session ends. N concurrent
// optimizations therefore cost one bank plus N sessions of scratch, with
// the scratch itself recycled across jobs, instead of N fully duplicated
// pipelines.
package rt

import (
	"sync"
	"sync/atomic"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Process-wide pool metrics, aggregated across all pools in the default
// registry (per-pool numbers stay available through Pool.Stats). The
// pointers are resolved once so a lease costs two extra atomic adds.
var (
	mLeases   = obs.Default.Counter("rt.pool.leases")
	mReuses   = obs.Default.Counter("rt.pool.reuses")
	mMisses   = obs.Default.Counter("rt.pool.misses")
	mReleases = obs.Default.Counter("rt.pool.releases")
)

// traceLease reports one lease to the runtime trace sink when tracing
// is enabled (an atomic load and nil check otherwise).
func traceLease(kind string, elems int, hit bool) {
	if s := obs.Runtime(); s != nil {
		s.Emit(obs.Event{Type: obs.EventPool, Name: kind, N: elems, Hit: hit})
	}
}

// traceRelease reports one release to the runtime trace sink.
func traceRelease(kind string, elems int) {
	if s := obs.Runtime(); s != nil {
		s.Emit(obs.Event{Type: obs.EventPool, Name: kind + ".release", N: elems})
	}
}

// dims keys one free list by exact grid shape.
type dims struct{ w, h int }

// Pool is a dimension-keyed free list of Field/CField storage.
// Lease with Field/CField, return with the matching Put method.
// Leased fields are always zeroed, so a pooled lease is a drop-in
// replacement for grid.NewField — results stay bit-identical whether
// memory is fresh or recycled.
//
// Free lists are keyed by grid dimensions (w, h), not element count:
// multi-resolution sessions interleave leases at several grid sizes, and
// a shape-exact key guarantees a released coarse-grid buffer serves the
// next coarse-grid lease directly instead of being found (or missed)
// through an area collision. A returned buffer stays on its list until
// the next lease of its shape; the garbage collector never drops it, so
// a warm session leases without allocating however often the collector
// runs between its release and the next lease.
//
// A Pool is safe for concurrent use. The zero value is ready to use.
type Pool struct {
	mu      sync.Mutex
	fields  map[dims][]*grid.Field
	cfields map[dims][]*grid.CField

	leases atomic.Int64 // total leases served
	reuses atomic.Int64 // leases served from the free list
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Shared is the process-wide default pool. Pipelines and sessions lease
// from it unless given a private pool, so independent pipelines at the
// same preset recycle each other's scratch.
var Shared = NewPool()

// take pops the most recently returned item of shape d from the free
// lists *m, or returns nil when there is none. It counts the lease
// either way.
func take[T any](p *Pool, m *map[dims][]*T, d dims) *T {
	p.leases.Add(1)
	mLeases.Inc()
	p.mu.Lock()
	l := (*m)[d]
	var v *T
	if n := len(l); n > 0 {
		v, l[n-1] = l[n-1], nil
		(*m)[d] = l[:n-1]
	}
	p.mu.Unlock()
	if v == nil {
		mMisses.Inc()
		return nil
	}
	p.reuses.Add(1)
	mReuses.Inc()
	return v
}

// give pushes v onto the free list of shape d in *m.
func give[T any](p *Pool, m *map[dims][]*T, d dims, v *T) {
	mReleases.Inc()
	p.mu.Lock()
	if *m == nil {
		*m = make(map[dims][]*T)
	}
	(*m)[d] = append((*m)[d], v)
	p.mu.Unlock()
}

// Field leases a zeroed w×h field.
func (p *Pool) Field(w, h int) *grid.Field {
	f := take(p, &p.fields, dims{w, h})
	traceLease("field", w*h, f != nil)
	if f == nil {
		return grid.NewField(w, h)
	}
	f.Zero()
	return f
}

// PutField returns a field to the free list. nil is ignored. The caller
// must not use f afterwards.
func (p *Pool) PutField(f *grid.Field) {
	if f == nil {
		return
	}
	traceRelease("field", len(f.Data))
	give(p, &p.fields, dims{f.W, f.H}, f)
}

// CField leases a zeroed w×h complex field.
func (p *Pool) CField(w, h int) *grid.CField {
	c := take(p, &p.cfields, dims{w, h})
	traceLease("cfield", w*h, c != nil)
	if c == nil {
		return grid.NewCField(w, h)
	}
	c.Zero()
	return c
}

// PutCField returns a complex field to the free list. nil is ignored.
// The caller must not use c afterwards.
func (p *Pool) PutCField(c *grid.CField) {
	if c == nil {
		return
	}
	traceRelease("cfield", len(c.Data))
	give(p, &p.cfields, dims{c.W, c.H}, c)
}

// Stats reports total leases and how many were served from the free
// list (for tests and capacity diagnostics).
func (p *Pool) Stats() (leases, reuses int64) {
	return p.leases.Load(), p.reuses.Load()
}
