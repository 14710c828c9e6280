package fft

import (
	"fmt"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// Plan2D performs 2-D transforms on w×h complex fields by applying row
// transforms, transposing, applying row transforms again (i.e. the
// original columns), and transposing back. Row passes are distributed
// across the engine's workers — this is the batched-FFT parallelism the
// paper obtains from the GPU.
//
// A Plan2D owns scratch storage and is therefore NOT safe for concurrent
// use; create one per goroutine (they share the underlying immutable 1-D
// plans through the package cache).
type Plan2D struct {
	w, h    int
	rowPlan *Plan // length w
	colPlan *Plan // length h
	eng     *engine.Engine
	scratch []complex128 // h*w transpose buffer

	// Row-pass operands staged per call for the pre-bound engine body.
	// Binding the closure once at construction keeps the per-transform
	// hot path free of closure allocations (engine bodies escape).
	rpData    []complex128
	rpN       int
	rpPlan    *Plan
	rpInverse bool
	rowBody   func(lo, hi int)

	// ForwardReal operands, staged the same way for realBody.
	rrDst    *grid.CField
	rrSrc    *grid.Field
	realBody func(lo, hi int)
}

// NewPlan2D creates a 2-D plan for w×h fields executed on eng.
// Both dimensions must be powers of two.
func NewPlan2D(w, h int, eng *engine.Engine) *Plan2D {
	return NewPlan2DFromPlans(CachedPlan(w), CachedPlan(h), eng, nil)
}

// Plan2DScratchLen returns the scratch element count a w×h Plan2D needs
// (the transpose buffer). Callers leasing scratch from a pool hand
// NewPlan2DFromPlans a slice of at least this length.
func Plan2DScratchLen(w, h int) int { return w * h }

// NewPlan2DFromPlans builds a 2-D plan around existing (immutable,
// shared) 1-D plans — the session constructor: a resource bank owns the
// row/column plans once per grid size, and every session wraps them with
// its own scratch. scratch must be nil (allocate internally) or at least
// Plan2DScratchLen(w, h) elements of caller-owned memory, e.g. leased
// from an rt.Pool.
func NewPlan2DFromPlans(row, col *Plan, eng *engine.Engine, scratch []complex128) *Plan2D {
	w, h := row.N(), col.N()
	if !grid.IsPow2(w) || !grid.IsPow2(h) {
		panic(fmt.Sprintf("fft: grid %dx%d is not power-of-two", w, h))
	}
	if eng == nil {
		eng = engine.CPU()
	}
	if scratch == nil {
		scratch = make([]complex128, Plan2DScratchLen(w, h))
	}
	if len(scratch) < Plan2DScratchLen(w, h) {
		panic(fmt.Sprintf("fft: plan scratch %d below required %d", len(scratch), Plan2DScratchLen(w, h)))
	}
	p := &Plan2D{
		w:       w,
		h:       h,
		rowPlan: row,
		colPlan: col,
		eng:     eng,
		scratch: scratch[:w*h],
	}
	p.rowBody = func(lo, hi int) {
		data, n, plan := p.rpData, p.rpN, p.rpPlan
		if p.rpInverse {
			for r := lo; r < hi; r++ {
				plan.Inverse(data[r*n : (r+1)*n])
			}
		} else {
			for r := lo; r < hi; r++ {
				plan.Forward(data[r*n : (r+1)*n])
			}
		}
	}
	p.realBody = func(lo, hi int) { p.realRows(p.rrDst, p.rrSrc, lo, hi) }
	return p
}

// W returns the plan width.
func (p *Plan2D) W() int { return p.w }

// H returns the plan height.
func (p *Plan2D) H() int { return p.h }

// Engine returns the execution engine the plan schedules on.
func (p *Plan2D) Engine() *engine.Engine { return p.eng }

func (p *Plan2D) check(c *grid.CField) {
	if c.W != p.w || c.H != p.h {
		panic(fmt.Sprintf("fft: field %dx%d does not match plan %dx%d", c.W, c.H, p.w, p.h))
	}
}

// Forward computes the in-place unnormalised 2-D DFT of c.
func (p *Plan2D) Forward(c *grid.CField) { p.transform(c, false) }

// Inverse computes the in-place inverse 2-D DFT of c including the
// 1/(w·h) normalisation.
func (p *Plan2D) Inverse(c *grid.CField) { p.transform(c, true) }

func (p *Plan2D) transform(c *grid.CField, inverse bool) {
	p.check(c)
	// Pass 1: transform each row of the w×h field.
	p.rowPass(c.Data, p.h, p.w, p.rowPlan, inverse)
	// Transpose into scratch (now h×w with rows = original columns).
	transpose(p.scratch, c.Data, p.w, p.h)
	// Pass 2: transform each original column.
	p.rowPass(p.scratch, p.w, p.h, p.colPlan, inverse)
	// Transpose back.
	transpose(c.Data, p.scratch, p.h, p.w)
}

// rowPass transforms rows of a rows×n matrix stored row-major in data,
// fanning rows across the engine's workers through the pre-bound body.
func (p *Plan2D) rowPass(data []complex128, rows, n int, plan *Plan, inverse bool) {
	p.rpData, p.rpN, p.rpPlan, p.rpInverse = data, n, plan, inverse
	p.eng.ForChunk(rows, p.rowBody)
	p.rpData, p.rpPlan = nil, nil
}

// transpose writes the w×h row-major matrix src into dst as an h-wide,
// w-tall row-major matrix using cache blocking.
func transpose(dst, src []complex128, w, h int) {
	const block = 32
	for by := 0; by < h; by += block {
		yMax := by + block
		if yMax > h {
			yMax = h
		}
		for bx := 0; bx < w; bx += block {
			xMax := bx + block
			if xMax > w {
				xMax = w
			}
			for y := by; y < yMax; y++ {
				row := src[y*w : y*w+w]
				for x := bx; x < xMax; x++ {
					dst[x*h+y] = row[x]
				}
			}
		}
	}
}

// Spectrum computes the forward transform of a real field into a newly
// allocated complex field.
func (p *Plan2D) Spectrum(f *grid.Field) *grid.CField {
	c := grid.NewCField(f.W, f.H)
	c.SetReal(f)
	p.Forward(c)
	return c
}

// Convolve computes the circular convolution a ⊛ k where kSpec is the
// precomputed spectrum of the kernel, writing the complex result into
// dst. src must hold the *spectrum* of the signal (forward-transformed);
// dst receives the spatial-domain product. src is not modified.
func (p *Plan2D) Convolve(dst, srcSpec, kSpec *grid.CField) {
	p.check(dst)
	p.check(srcSpec)
	p.check(kSpec)
	dst.Mul(srcSpec, kSpec)
	p.Inverse(dst)
}
