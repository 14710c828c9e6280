// Package rt is the session-based runtime substrate underneath the
// optimizer pipelines: dimension-keyed free lists of field memory (Pool)
// and immutable, concurrency-safe per-preset resource banks (Bank).
//
// The split mirrors how the paper's GPU implementation manages device
// memory. Everything derivable once per optical preset — SOCS kernel
// banks, FFT plans, rasterised targets — lives in a Bank shared by every
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
// through an area collision. Backing storage is held through sync.Pool,
// so memory pressure can reclaim idle buffers between jobs.
//
// A Pool is safe for concurrent use. The zero value is ready to use.
type Pool struct {
	fields  sync.Map // dims -> *sync.Pool of *grid.Field
	cfields sync.Map // dims -> *sync.Pool of *grid.CField

	leases int64 // total leases served
	reuses int64 // leases served from the free list
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Shared is the process-wide default pool. Pipelines and sessions lease
// from it unless given a private pool, so independent pipelines at the
// same preset recycle each other's scratch.
var Shared = NewPool()

func list(m *sync.Map, d dims) *sync.Pool {
	if sp, ok := m.Load(d); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := m.LoadOrStore(d, &sync.Pool{})
	return sp.(*sync.Pool)
}

// Field leases a zeroed w×h field.
func (p *Pool) Field(w, h int) *grid.Field {
	atomic.AddInt64(&p.leases, 1)
	mLeases.Inc()
	if v := list(&p.fields, dims{w, h}).Get(); v != nil {
		atomic.AddInt64(&p.reuses, 1)
		mReuses.Inc()
		traceLease("field", w*h, true)
		f := v.(*grid.Field)
		f.Reshape(w, h)
		f.Zero()
		return f
	}
	mMisses.Inc()
	traceLease("field", w*h, false)
	return grid.NewField(w, h)
}

// PutField returns a field to the free list. nil is ignored. The caller
// must not use f afterwards.
func (p *Pool) PutField(f *grid.Field) {
	if f == nil {
		return
	}
	mReleases.Inc()
	traceRelease("field", len(f.Data))
	list(&p.fields, dims{f.W, f.H}).Put(f)
}

// CField leases a zeroed w×h complex field.
func (p *Pool) CField(w, h int) *grid.CField {
	atomic.AddInt64(&p.leases, 1)
	mLeases.Inc()
	if v := list(&p.cfields, dims{w, h}).Get(); v != nil {
		atomic.AddInt64(&p.reuses, 1)
		mReuses.Inc()
		traceLease("cfield", w*h, true)
		c := v.(*grid.CField)
		c.Reshape(w, h)
		c.Zero()
		return c
	}
	mMisses.Inc()
	traceLease("cfield", w*h, false)
	return grid.NewCField(w, h)
}

// PutCField returns a complex field to the free list. nil is ignored.
// The caller must not use c afterwards.
func (p *Pool) PutCField(c *grid.CField) {
	if c == nil {
		return
	}
	mReleases.Inc()
	traceRelease("cfield", len(c.Data))
	list(&p.cfields, dims{c.W, c.H}).Put(c)
}

// Stats reports total leases and how many were served from the free
// list (for tests and capacity diagnostics).
func (p *Pool) Stats() (leases, reuses int64) {
	return atomic.LoadInt64(&p.leases), atomic.LoadInt64(&p.reuses)
}
