package fft

import (
	"fmt"
	"time"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Batch execution timing in the default registry: one histogram per
// public batched pass, observed in nanoseconds. An observation is two
// time.Now calls and two atomic adds against a pass that transforms an
// entire field batch, so the always-on cost is far below the noise
// floor (the alloc-regression tests confirm it stays heap-free).
var (
	mBatchForwardNS       = obs.Default.Histogram("fft.batch.forward_ns", obs.DurationBounds)
	mBatchInverseNS       = obs.Default.Histogram("fft.batch.inverse_ns", obs.DurationBounds)
	mBatchInverseBandedNS = obs.Default.Histogram("fft.batch.inverse_banded_ns", obs.DurationBounds)
	mBatchForwardColsNS   = obs.Default.Histogram("fft.batch.forward_banded_cols_ns", obs.DurationBounds)
	mBatchForwardRealNS   = obs.Default.Histogram("fft.batch.forward_real_ns", obs.DurationBounds)
)

// BatchPlan2D is the package's 2-D transform. It runs on a stack of B
// same-shaped complex fields with kernel-level parallelism: every pass
// schedules the B×rows (or B×cols) independent 1-D transforms of the
// whole batch in a single engine sweep, so one optimizer stage pays one
// fork/join barrier per pass instead of one per field. This is the
// batched-FFT execution model the paper obtains from cuFFT's plan-many
// interface; a single field is a batch of one.
//
// The column pass does not transpose: each worker gathers a block of
// columns into per-worker scratch, transforms them, and scatters them
// back.
//
// The banded variants exploit the band-limited kernel spectra of the
// lithography model (optics.Kernel stores a (2R+1)² box around DC):
// rows/columns known to be zero are skipped entirely. Skipping is
// bit-exact — a radix-2 FFT of an all-zero vector is exactly zero — so
// banded and full transforms agree bit-for-bit on every bin the caller
// is allowed to read.
//
// A BatchPlan2D owns per-worker scratch and is NOT safe for concurrent
// use; create one per goroutine (the immutable 1-D plans are shared
// through the package cache).
type BatchPlan2D struct {
	w, h    int
	rowPlan *Plan // length w
	colPlan *Plan // length h
	eng     *engine.Engine
	col     [][]complex128 // per-worker column gather scratch, colBlock·h

	// Per-pass operands staged for the pre-bound engine bodies below.
	// Binding the closures once at construction keeps every batched pass
	// free of per-call closure allocations (engine bodies escape).
	opFields    []*grid.CField
	opReal      *grid.Field // InverseRealBanded's output, ForwardReal's input
	opInverse   bool
	opBand      int // row/column band of the banded passes
	opLo, opHi  int // rows the column gathers zero instead of reading
	opBlocks    int // column blocks per field (col passes)
	opLowBlocks int // blocks in the low column run (colPassCols)

	rowBody       func(lo, hi int)
	rowBandedBody func(lo, hi int)
	colBody       func(worker, i int)
	colColsBody   func(worker, i int)
	colRealBody   func(worker, i int)
	rowRealBody   func(lo, hi int)

	scale float64 // 1/(w·h), the inverse passes' normalisation

	one [1]*grid.CField // singleton batch of the one-field passes
}

// NewBatchPlan2D creates a batched 2-D plan for w×h fields executed on
// eng. Both dimensions must be powers of two.
func NewBatchPlan2D(w, h int, eng *engine.Engine) *BatchPlan2D {
	return NewBatchPlan2DFromPlans(CachedPlan(w), CachedPlan(h), eng, nil)
}

// BatchScratchLen returns the scratch element count a batch plan for
// h-tall fields needs on an engine with the given worker count (one
// colBlock-wide column gather buffer per worker). Callers leasing
// scratch from a pool hand NewBatchPlan2DFromPlans a slice of at least
// this length.
func BatchScratchLen(h, workers int) int { return workers * colBlock * h }

// NewBatchPlan2DFromPlans builds a batched 2-D plan around existing
// (immutable, shared) 1-D plans, the session constructor: a resource
// bank owns the 1-D plans once per grid size, and every session wraps
// them with its own scratch. scratch must be nil (allocate internally)
// or at least BatchScratchLen(h, eng.Workers()) elements of
// caller-owned memory, e.g. leased from an rt.Pool.
func NewBatchPlan2DFromPlans(row, col *Plan, eng *engine.Engine, scratch []complex128) *BatchPlan2D {
	w, h := row.N(), col.N()
	if !grid.IsPow2(w) || !grid.IsPow2(h) {
		panic(fmt.Sprintf("fft: grid %dx%d is not power-of-two", w, h))
	}
	if eng == nil {
		eng = engine.CPU()
	}
	if scratch == nil {
		scratch = make([]complex128, BatchScratchLen(h, eng.Workers()))
	}
	if len(scratch) < BatchScratchLen(h, eng.Workers()) {
		panic(fmt.Sprintf("fft: batch scratch %d below required %d", len(scratch), BatchScratchLen(h, eng.Workers())))
	}
	p := &BatchPlan2D{
		w:       w,
		h:       h,
		rowPlan: row,
		colPlan: col,
		eng:     eng,
		col:     make([][]complex128, eng.Workers()),
		scale:   1 / float64(w*h),
	}
	for i := range p.col {
		p.col[i] = scratch[i*colBlock*h : (i+1)*colBlock*h]
	}
	p.bindBodies()
	p.bindRealBody()
	return p
}

// bindBodies creates the engine bodies once; each pass stages its
// operands in the op* fields and reuses the bound closure.
func (p *BatchPlan2D) bindBodies() {
	p.rowBody = func(lo, hi int) {
		w, h := p.w, p.h
		fields, tw := p.opFields, p.rowPlan.twiddleTable(p.opInverse)
		for i := lo; i < hi; i++ {
			r := i % h
			p.rowPlan.transform(fields[i/h].Data[r*w:(r+1)*w], tw)
		}
	}
	p.rowBandedBody = func(lo, hi int) {
		w, h := p.w, p.h
		fields, band, tw := p.opFields, p.opBand, p.rowPlan.twiddleTable(p.opInverse)
		rows := 2*band + 1
		for i := lo; i < hi; i++ {
			r := i % rows
			if r > band {
				r += h - rows
			}
			p.rowPlan.transform(fields[i/rows].Data[r*w:(r+1)*w], tw)
		}
	}
	p.colBody = func(worker, i int) {
		blocks := p.opBlocks
		data := p.opFields[i/blocks].Data
		x0 := (i % blocks) * colBlock
		p.transformCols(data[x0:], p.col[worker], min(colBlock, p.w-x0), p.opLo, p.opHi)
	}
	p.colColsBody = func(worker, i int) {
		w, band, blocks, lowBlocks := p.w, p.opBand, p.opBlocks, p.opLowBlocks
		data := p.opFields[i/blocks].Data
		b := i % blocks
		x0, x1 := b*colBlock, band+1
		if b >= lowBlocks {
			x0, x1 = w-band+(b-lowBlocks)*colBlock, w
		}
		p.transformCols(data[x0:], p.col[worker], min(colBlock, x1-x0), p.h, p.h)
	}
}

// transformCols runs the column transform of the pass on the nb
// columns at the start of data (row y at data[y·w:]): it gathers them
// into the scratch s with the rows [lo, hi) as exact zeros, transforms
// them and scatters them back. An inverse pass applies the whole
// 1/(w·h) normalisation in the scatter, once, instead of 1/w and 1/h
// in the 1-D transforms (see BatchInverse for why that is exact). A
// full block moves through the column plan's kernel, a narrower tail
// through the Go loops.
func (p *BatchPlan2D) transformCols(data, s []complex128, nb, lo, hi int) {
	w, h, k, rev := p.w, p.h, p.colPlan.k, p.colPlan.rev
	_ = data[(h-1)*w+nb-1] // the kernels trust their lengths
	if nb == colBlock {
		k.gather(s, data, rev, w, lo, hi)
	} else {
		gatherCols(s, data, rev, w, nb, lo, hi)
	}
	tw := p.colPlan.twiddleTable(p.opInverse)
	for c := 0; c < nb; c++ {
		p.colPlan.butterflies(s[c*h:(c+1)*h], tw)
	}
	switch {
	case !p.opInverse && nb == colBlock:
		k.scatter(data, s, w, h)
	case !p.opInverse:
		scatterCols(data, s, w, h, nb)
	case nb == colBlock:
		k.scatterScaled(data, s, w, h, p.scale)
	default:
		scatterColsScaled(data, s, w, h, nb, p.scale)
	}
}

// bandGap returns the rows [lo, hi) outside the wrapped row band
// |v| ≤ band, which the banded column passes gather as exact zeros
// instead of reading; band < 0 or a band covering all h rows gives
// the empty range [h, h).
func bandGap(band, h int) (lo, hi int) {
	if band < 0 || 2*band+1 >= h {
		return h, h
	}
	return band + 1, h - band
}

// bindRealBody creates the bodies of the real-sided passes: the row
// body of ForwardReal (realRows) and the column body of
// InverseRealBanded. Column work item i covers the column pairs
// [i·colBlock, (i+1)·colBlock): each pair (2c, 2c+1) is gathered as the
// one complex sequence Y₀ + i·Y₁ into per-worker scratch, in
// bit-reversed row order, inverse-transformed once, and its real and
// imaginary parts are scattered, scaled by 1/(w·h), to the two real
// output columns. Like transformCols, a full block moves through the
// column plan's kernel and a narrower tail through the Go loops.
func (p *BatchPlan2D) bindRealBody() {
	p.colRealBody = func(worker, i int) {
		w, h, k, rev := p.w, p.h, p.colPlan.k, p.colPlan.rev
		c0 := i * colBlock
		np := min(colBlock, w/2-c0)
		data, out := p.opFields[0].Data[2*c0:], p.opReal.Data[2*c0:]
		_, _ = data[(h-1)*w+2*np-1], out[(h-1)*w+2*np-1] // the kernels trust their lengths
		s := p.col[worker]
		if np == colBlock {
			k.gatherPairs(s, data, rev, w, p.opLo, p.opHi)
		} else {
			gatherPairs(s, data, rev, w, np, p.opLo, p.opHi)
		}
		for c := 0; c < np; c++ {
			p.colPlan.butterflies(s[c*h:(c+1)*h], p.colPlan.twinv)
		}
		if np == colBlock {
			k.scatterReal(out, s, w, h, p.scale)
		} else {
			scatterReal(out, s, w, h, np, p.scale)
		}
	}
	p.rowRealBody = p.realRows
}

func (p *BatchPlan2D) check(fields []*grid.CField) {
	for _, f := range fields {
		if f.W != p.w || f.H != p.h {
			panic(fmt.Sprintf("fft: field %dx%d does not match batch plan %dx%d", f.W, f.H, p.w, p.h))
		}
	}
}

// BatchForward computes the in-place unnormalised 2-D DFT of every
// field in the batch.
func (p *BatchPlan2D) BatchForward(fields []*grid.CField) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, false)
	p.colPass(fields, false, -1)
	mBatchForwardNS.Observe(float64(time.Since(start)))
}

// BatchInverse computes the in-place inverse 2-D DFT (including the
// 1/(w·h) normalisation) of every field in the batch.
//
// The 1-D inverses run unnormalised and the column scatter applies
// 1/(w·h) once. That is bit-identical to scaling every 1-D inverse by
// its own 1/n: the scales are powers of two, and multiplying by a power
// of two commutes with the rounding of every add and multiply of the
// butterflies as long as no value leaves the normal range. Only
// subnormal intermediates (|x| < 2⁻¹⁰²² after scaling) or overflow could
// round differently, and the sign of an exact zero may differ.
func (p *BatchPlan2D) BatchInverse(fields []*grid.CField) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, true)
	p.colPass(fields, true, -1)
	mBatchInverseNS.Observe(float64(time.Since(start)))
}

// BatchInverseBanded is BatchInverse for spectra whose support is
// confined to the wrapped row band |v| ≤ band (rows 0..band and
// h-band..h-1). Rows outside the band are never read — they may hold
// stale data — and are treated as exactly zero, which matches what a
// full inverse of a properly zeroed field would compute bit-for-bit.
// The output is dense (every element of every field is written).
// band < 0 or a band covering the whole grid falls back to the full
// transform.
func (p *BatchPlan2D) BatchInverseBanded(fields []*grid.CField, band int) {
	p.check(fields)
	start := time.Now()
	if band < 0 || 2*band+1 >= p.h {
		p.rowPass(fields, true)
		p.colPass(fields, true, -1)
	} else {
		p.rowPassBanded(fields, band, true)
		p.colPass(fields, true, band)
	}
	mBatchInverseBandedNS.Observe(float64(time.Since(start)))
}

// InverseRealBanded computes the inverse 2-D DFT (with the 1/(w·h)
// normalisation) of the Hermitian spectrum src, whose output is real,
// into dst. src is confined to the wrapped row band |v| ≤ band exactly
// as for BatchInverseBanded: rows outside it are never read and count
// as zero. src is used as scratch and holds undefined data on return.
//
// After the banded row pass every column of a Hermitian spectrum has a
// real inverse, so the column pass transforms columns 2c and 2c+1 as
// one complex sequence Y₀ + i·Y₁ and takes column 2c from the real part
// and column 2c+1 from the imaginary part: half the column transforms
// of the complex path and no real-part sweep. The result equals
// Re(BatchInverseBanded(src)) up to rounding; a non-Hermitian src
// leaks its anti-Hermitian part into the neighbouring column. band < 0
// or a band covering the whole grid runs the full row pass.
func (p *BatchPlan2D) InverseRealBanded(dst *grid.Field, src *grid.CField, band int) {
	p.one[0] = src
	p.check(p.one[:])
	if dst.W != p.w || dst.H != p.h {
		panic(fmt.Sprintf("fft: field %dx%d does not match batch plan %dx%d", dst.W, dst.H, p.w, p.h))
	}
	if p.w < 2 {
		panic("fft: InverseRealBanded needs a width of at least 2")
	}
	start := time.Now()
	if band < 0 || 2*band+1 >= p.h {
		p.rowPass(p.one[:], true)
	} else {
		p.rowPassBanded(p.one[:], band, true)
	}
	p.opFields, p.opReal = p.one[:], dst
	p.opLo, p.opHi = bandGap(band, p.h)
	p.eng.Map((p.w/2+colBlock-1)/colBlock, p.colRealBody)
	p.opFields, p.opReal, p.one[0] = nil, nil, nil
	mBatchInverseBandedNS.Observe(float64(time.Since(start)))
}

// BatchForwardBandedCols computes the forward DFT but transforms only
// the wrapped column band |u| ≤ band in the second pass. On return the
// bins in columns 0..band and w-band..w-1 (all rows) hold their exact
// full-transform values; all other columns hold undefined intermediate
// data and must not be read. This is the output-pruned transform for
// spectra that are consumed only inside a band-limited kernel box.
// band < 0 or a band covering the whole grid falls back to the full
// transform.
func (p *BatchPlan2D) BatchForwardBandedCols(fields []*grid.CField, band int) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, false)
	if band < 0 || 2*band+1 >= p.w {
		p.colPass(fields, false, -1)
	} else {
		p.colPassCols(fields, band, false)
	}
	mBatchForwardColsNS.Observe(float64(time.Since(start)))
}

// rowPass transforms every row of every field in one engine sweep.
func (p *BatchPlan2D) rowPass(fields []*grid.CField, inverse bool) {
	p.opFields, p.opInverse = fields, inverse
	p.eng.ForChunk(len(fields)*p.h, p.rowBody)
	p.opFields = nil
}

// rowPassBanded transforms only the wrapped band rows |v| ≤ band of
// every field (2·band+1 rows instead of h).
func (p *BatchPlan2D) rowPassBanded(fields []*grid.CField, band int, inverse bool) {
	p.opFields, p.opBand, p.opInverse = fields, band, inverse
	p.eng.ForChunk(len(fields)*(2*band+1), p.rowBandedBody)
	p.opFields = nil
}

// colBlock is the number of columns gathered per work item. Gathering a
// few adjacent columns together turns the strided column walk into
// full-cache-line reads, which dominates the pass cost on large grids.
// Wider blocks measured slower: with the Go loops the serial 512² 2-D
// FFT took 3.8–4.4 ms at 4 and 5.4, 5.4–5.7 and 5.6–6.3 ms at 8, 16
// and 32 (three runs each, 2 vCPU, go1.24). The AVX2 movement kernels
// are written for a block of 4.
const colBlock = 4

// colPass transforms every column of every field by blocked gather/
// transform/scatter with per-worker scratch. inBand ≥ 0 declares that
// only the wrapped rows |v| ≤ inBand hold live data: other rows are
// gathered as exact zeros instead of being read.
func (p *BatchPlan2D) colPass(fields []*grid.CField, inverse bool, inBand int) {
	blocks := (p.w + colBlock - 1) / colBlock
	p.opFields, p.opInverse, p.opBlocks = fields, inverse, blocks
	p.opLo, p.opHi = bandGap(inBand, p.h)
	p.eng.Map(len(fields)*blocks, p.colBody)
	p.opFields = nil
}

// colPassCols transforms only the wrapped band columns |u| ≤ band of
// every field (2·band+1 columns instead of w). The band splits into two
// contiguous column runs ([0, band] and [w-band, w)), each processed in
// cache-friendly blocks.
func (p *BatchPlan2D) colPassCols(fields []*grid.CField, band int, inverse bool) {
	// Blocks of the low run [0, band] then the high run [w-band, w).
	lowBlocks := (band + 1 + colBlock - 1) / colBlock
	highBlocks := (band + colBlock - 1) / colBlock
	blocks := lowBlocks + highBlocks
	p.opFields, p.opInverse, p.opBand = fields, inverse, band
	p.opBlocks, p.opLowBlocks = blocks, lowBlocks
	p.eng.Map(len(fields)*blocks, p.colColsBody)
	p.opFields = nil
}
