// Package levelset provides the level-set machinery of the paper's §III:
// the signed-distance representation of the mask contour (Eq. 5), the
// mask extraction rule (Eq. 6), the central-difference gradient
// magnitude of the evolution velocity (Eq. 10), the CFL-limited time
// step of Algorithm 1, and periodic reinitialisation back to a signed
// distance function.
//
// Distances are measured in pixels (the simulation grid's natural unit);
// a proper SDF then has |∇ψ| ≈ 1, which keeps the velocity scaling of
// Eq. 10 well conditioned at any grid resolution.
package levelset

import (
	"fmt"
	"math"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// inf is the padding value for the distance transform; any finite
// distance on a real grid is far smaller.
const inf = math.MaxFloat64 / 4

// edtSq1D computes the 1-D squared-distance transform of f in place
// using the Felzenszwalb–Huttenlocher lower-envelope-of-parabolas
// algorithm: d[x] = min_x' (f[x'] + (x−x')²). v, z and out are caller
// scratch of length ≥ n (z needs n+1).
func edtSq1D(f, out []float64, v []int, z []float64) {
	n := len(f)
	k := 0
	v[0] = 0
	z[0] = -inf
	z[1] = inf
	for q := 1; q < n; q++ {
		var s float64
		for {
			p := v[k]
			s = ((f[q] + float64(q*q)) - (f[p] + float64(p*p))) / float64(2*(q-p))
			if s > z[k] {
				break
			}
			k--
		}
		k++
		v[k] = q
		z[k] = s
		z[k+1] = inf
	}
	k = 0
	for q := 0; q < n; q++ {
		for z[k+1] < float64(q) {
			k++
		}
		d := float64(q - v[k])
		out[q] = d*d + f[v[k]]
	}
}

// edtSets names the pair of pixel sets a distance transform measures
// to. Both spell out Eq. 6's split and its complement exactly, NaN
// included; the column sweep tests them inline, with no call per pixel.
type edtSets int

const (
	// maskSets: inside v > 0.5, outside v ≤ 0.5; a NaN mask value is
	// in neither set.
	maskSets edtSets = iota
	// psiSets: inside ψ ≤ 0, outside every other ψ, NaN included.
	psiSets
)

// EDT computes exact Euclidean distance transforms on an engine. Its
// column pass fans blocks of edtBlock adjacent columns across the
// workers and its row pass the rows; every column and row is an
// independent 1-D transform with the same arithmetic whichever worker
// runs it, so the result is bit-identical on every engine. The
// per-worker scratch is allocated once, at construction, so a
// reinitialisation allocates nothing.
//
// An EDT is NOT safe for concurrent use.
type EDT struct {
	w, h    int
	eng     *engine.Engine
	scratch []edtScratch // one per worker, for the row pass

	// Operands staged for the pre-bound engine bodies.
	opIn, opOut, opSrc *grid.Field
	opSets             edtSets

	colBody, rowBody func(worker, i int)
	combineBody      func(lo, hi int)
}

// edtScratch is one worker's row transform workspace.
type edtScratch struct {
	out []float64
	v   []int
	z   []float64
}

// edtBlock is the number of adjacent columns one column work item
// sweeps: 8 float64 fill a 64-byte cache line, so each row of a block
// is read and written a line at a time.
const edtBlock = 8

// colSq is the squared distance from row y to the member row last of
// its column, or inf when the column has none (last < 0). Every
// distance on a grid below 2²⁶ rows squares exactly.
func colSq(y, last int) float64 {
	if last < 0 {
		return inf
	}
	d := float64(y - last)
	return d * d
}

// NewEDT returns a distance transform for w×h fields on eng (nil means
// engine.CPU()).
func NewEDT(w, h int, eng *engine.Engine) *EDT {
	if eng == nil {
		eng = engine.CPU()
	}
	e := &EDT{w: w, h: h, eng: eng, scratch: make([]edtScratch, eng.Workers())}
	for i := range e.scratch {
		e.scratch[i] = edtScratch{
			out: make([]float64, w),
			v:   make([]int, w),
			z:   make([]float64, w+1),
		}
	}
	e.colBody = e.colSweep
	e.rowBody = func(worker, i int) {
		s := &e.scratch[worker]
		f, y := e.opIn, i
		if i >= e.h {
			f, y = e.opOut, i-e.h
		}
		row := f.Row(y)
		edtSq1D(row, s.out[:e.w], s.v, s.z)
		copy(row, s.out[:e.w])
	}
	e.combineBody = func(lo, hi int) {
		psi, tmp := e.opIn.Data[lo:hi], e.opOut.Data[lo:hi]
		far := float64(e.w + e.h)
		for i, dIn := range psi {
			dOut := tmp[i]
			switch {
			case dIn >= inf && dOut >= inf:
				// Only a pixel in neither set (a NaN mask value) with
				// both sets empty gets here.
				psi[i] = 0
			case dIn >= inf:
				// No pattern anywhere: everything is far outside.
				psi[i] = far
			case dOut >= inf:
				// No background anywhere: everything is far inside.
				psi[i] = -far
			default:
				psi[i] = math.Sqrt(dIn) - math.Sqrt(dOut)
			}
		}
	}
	return e
}

// colSweep is the column pass of both sets over the columns
// [b·edtBlock, (b+1)·edtBlock). Its input is binary, every pixel a
// member (0) or not (inf), so the exact output is the squared distance
// to the nearest member row of the column: a forward sweep down the
// rows writes the distance to the member above, reading each source
// pixel once for both sets, and a backward sweep lowers it to the
// distance to the member below where that is nearer, recognising the
// members by their 0. Every value written is an exact integer square
// or inf, so any exact pass writes the same bits: the parabola
// envelope edtSq1D wrote the same ones, d² + inf rounding to inf.
func (e *EDT) colSweep(_, b int) {
	w, h := e.w, e.h
	src, in, out := e.opSrc.Data, e.opIn.Data, e.opOut.Data
	psi := e.opSets == psiSets
	x0 := b * edtBlock
	nb := min(edtBlock, w-x0)
	var lastIn, lastOut [edtBlock]int
	for c := range lastIn {
		lastIn[c], lastOut[c] = -1, -1
	}
	for y := 0; y < h; y++ {
		i := y*w + x0
		dIn, dOut := in[i:i+nb], out[i:i+nb]
		if psi {
			for c, v := range src[i : i+nb] {
				if v <= 0 {
					lastIn[c] = y
				} else {
					lastOut[c] = y
				}
				dIn[c], dOut[c] = colSq(y, lastIn[c]), colSq(y, lastOut[c])
			}
			continue
		}
		for c, v := range src[i : i+nb] {
			if v > 0.5 {
				lastIn[c] = y
			} else if v <= 0.5 {
				lastOut[c] = y
			}
			dIn[c], dOut[c] = colSq(y, lastIn[c]), colSq(y, lastOut[c])
		}
	}
	for y := h - 1; y >= 0; y-- {
		i := y*w + x0
		dOut := out[i : i+nb]
		for c, d := range in[i : i+nb] {
			if d == 0 {
				lastIn[c] = y // the nearest member below, from here up
			} else if lastIn[c] > y {
				in[i+c] = min(d, colSq(lastIn[c], y))
			}
			if d := dOut[c]; d == 0 {
				lastOut[c] = y
			} else if lastOut[c] > y {
				dOut[c] = min(d, colSq(lastOut[c], y))
			}
		}
	}
}

// sq writes into in and out the exact Euclidean squared-distance
// transforms of the inside and outside pixel sets of src (sets): in(p) =
// min over inside pixels q of |p−q|², out(p) the same over outside
// pixels. Pixels in a set get 0 in its transform; an empty set gives
// +inf everywhere. in, out and src must be distinct.
func (e *EDT) sq(in, out, src *grid.Field, sets edtSets) {
	if in.W != e.w || in.H != e.h || out.W != e.w || out.H != e.h || src.W != e.w || src.H != e.h {
		panic(fmt.Sprintf("levelset: %dx%d EDT given fields %dx%d, %dx%d and %dx%d", e.w, e.h, in.W, in.H, out.W, out.H, src.W, src.H))
	}
	e.opIn, e.opOut, e.opSrc, e.opSets = in, out, src, sets
	e.eng.Map((e.w+edtBlock-1)/edtBlock, e.colBody)
	e.eng.Map(2*e.h, e.rowBody)
	e.opIn, e.opOut, e.opSrc = nil, nil, nil
}

// signedDistance writes into psi the signed distance between the
// inside and outside pixel sets of src (see SignedDistance), using tmp
// as scratch of the same shape. psi, tmp and src must be distinct.
func (e *EDT) signedDistance(psi, tmp, src *grid.Field, sets edtSets) {
	// psi: squared distance to the pattern, 0 on it; tmp: to the
	// background, 0 on it.
	e.sq(psi, tmp, src, sets)
	e.opIn, e.opOut = psi, tmp
	e.eng.ForChunk(len(psi.Data), e.combineBody)
	e.opIn, e.opOut = nil, nil
}

// ReinitializeInto rebuilds ψ as the exact signed distance function of
// its own zero sub-level set, writing the new ψ into dst with tmp as
// scratch, so a caller holding both allocates nothing. dst, tmp and psi
// must be distinct fields of one shape. The inside set is Eq. 6's
// ψ ≤ 0, exactly what SignedDistance(MaskFromPsi(ψ)) would read.
func (e *EDT) ReinitializeInto(dst, tmp, psi *grid.Field) {
	e.signedDistance(dst, tmp, psi, psiSets)
}

// SignedDistance computes the signed distance function of the binary
// mask (values > 0.5 are inside) following the paper's Eq. 5 convention:
// negative inside the pattern, positive outside, ≈0 on the contour.
// Distances are in pixels. If the mask is uniformly inside or outside,
// the corresponding half is filled with ∓(W+H) as an "infinitely far"
// sentinel.
func SignedDistance(mask *grid.Field) *grid.Field {
	psi := grid.NewFieldLike(mask)
	NewEDT(mask.W, mask.H, nil).SignedDistanceInto(psi, grid.NewFieldLike(mask), mask)
	return psi
}

// SignedDistanceInto writes SignedDistance(mask) into dst with tmp as
// scratch, bit for bit on any engine, so a caller holding both
// allocates nothing. dst, tmp and mask must be distinct fields of one
// shape.
func (e *EDT) SignedDistanceInto(dst, tmp, mask *grid.Field) {
	e.signedDistance(dst, tmp, mask, maskSets)
}

// MaskFromPsi extracts the binary mask from the level-set function per
// Eq. 6: 1 (m_in) where ψ ≤ 0, 0 (m_out) where ψ > 0 or ψ is NaN.
func MaskFromPsi(dst, psi *grid.Field) {
	n := maskVec(dst.Data, psi.Data)
	maskGo(dst.Data[n:], psi.Data[n:])
}

// maskGo is MaskFromPsi over slices (dst at least as long as psi): the
// reference of the AVX2 kernel, and the elements it leaves.
//
//go:noinline
func maskGo(dst, psi []float64) {
	dst = dst[:len(psi)]
	for i, v := range psi {
		if v <= 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// GradMagRows computes |∇ψ| for the rows [y0, y1) of dst, with central
// differences in the interior and one-sided differences at the borders.
// It reads ψ one row beyond the range and writes nothing outside it, so
// disjoint row ranges can run concurrently; the per-pixel arithmetic is
// the same whatever the range.
func GradMagRows(dst, psi *grid.Field, y0, y1 int) {
	w, h := psi.W, psi.H
	for y := y0; y < y1; y++ {
		row, out := psi.Row(y), dst.Row(y)
		// ∂ψ/∂y = k·(down − up): central inside, one-sided on the
		// border rows, where k = 1 leaves the difference's bits as is.
		up, down, k := psi.Row(max(y-1, 0)), psi.Row(min(y+1, h-1)), 0.5
		if y == 0 || y == h-1 {
			k = 1
		}
		gy := func(x int) float64 { return k * (down[x] - up[x]) }
		out[0] = math.Hypot(row[1]-row[0], gy(0))
		// The interior, x in [1, w−1): in, u and d start at x = 1 and
		// row at x−1 = 0, so interior pixel i reads row[i] and row[i+2].
		in, u, d := out[1:w-1], up[1:w-1], down[1:w-1]
		n := gradMagVec(in, row, u, d, k)
		gradMagGo(in[n:], row[n:], u[n:], d[n:], k)
		out[w-1] = math.Hypot(row[w-1]-row[w-2], gy(w-1))
	}
}

// gradMagGo sets out[i] = Hypot(0.5·(row[i+2]−row[i]), k·(down[i]−up[i]))
// for every i of out: the central differences of the interior pixels.
// It is the reference of the AVX2 kernel, which gives the same bits,
// and runs the elements the kernel leaves.
func gradMagGo(out, row, up, down []float64, k float64) {
	row, up, down = row[:len(out)+2], up[:len(out)], down[:len(out)]
	for i := range out {
		out[i] = math.Hypot(0.5*(row[i+2]-row[i]), k*(down[i]-up[i]))
	}
}

// TimeStep returns the CFL-limited step Δt = λ_t / max|v| (Algorithm 1,
// line 5) given maxAbs = max|v|. It returns 0 when the velocity is
// identically zero, which callers treat as convergence.
func TimeStep(lambda, maxAbs float64) float64 {
	if maxAbs == 0 {
		return 0
	}
	return lambda / maxAbs
}

// Evolve advances the level-set function in place: ψ ← ψ + v·Δt
// (Algorithm 1, line 6).
func Evolve(psi, v *grid.Field, dt float64) {
	psi.AddScaled(v, dt)
}

// Reinitialize rebuilds ψ as the exact signed distance function of its
// own zero sub-level set, preserving the contour while restoring the
// |∇ψ| ≈ 1 property that long evolutions erode. Returns the new ψ; see
// EDT.ReinitializeInto for the allocation-free, engine-parallel form.
func Reinitialize(psi *grid.Field) *grid.Field {
	dst := grid.NewFieldLike(psi)
	NewEDT(psi.W, psi.H, nil).ReinitializeInto(dst, grid.NewFieldLike(psi), psi)
	return dst
}
