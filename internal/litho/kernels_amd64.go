package litho

import (
	"math"

	"lsopc/internal/grid"
)

// kernelsAVX2OK says whether the per-pixel loops of kernels.go run their
// AVX2 kernels: the CPU has AVX2 and the OS saves the YMM registers
// (grid.HasAVX2). It is chosen once, here, and never changes.
var kernelsAVX2OK = grid.HasAVX2()

// conjMask flips the sign of the imaginary lanes of two complex128 in a
// YMM register: the conj of adjointAVX2, which, like Go's negation,
// flips the sign bit of every value, NaNs and zeros included.
var conjMask = [4]uint64{0, 1 << 63, 0, 1 << 63}

// ones holds 1.0 in four lanes, the 1 of costSensAVX2's 1 − r.
var ones = [4]float64{1, 1, 1, 1}

// halves holds 0.5 in four lanes, hermitianPairsAVX2's /2 (an exact
// halving, as the Go loop's, which the compiler turns into × 0.5).
var halves = [4]float64{0.5, 0.5, 0.5, 0.5}

func reduceVec(d []float64, f []complex128, w float64) int {
	if !kernelsAVX2OK {
		return 0
	}
	n := len(d) &^ 3
	if n > 0 {
		reduceAVX2(d[:n], f[:n], w)
	}
	return n
}

func adjointVec(e []complex128, w []float64) int {
	if !kernelsAVX2OK {
		return 0
	}
	n := len(e) &^ 3
	if n > 0 {
		adjointAVX2(e[:n], w[:n])
	}
	return n
}

func setVec(dst, src []float64) int {
	if !kernelsAVX2OK {
		return 0
	}
	n := len(dst) &^ 3
	if n > 0 {
		setAVX2(dst[:n], src[:n])
	}
	return n
}

// sweepGroup is costSensAVX2's operand block: up to three corners (k),
// each with its resist image r, its sensitivity plane w, its factor, a
// keep mask (all ones to accumulate into w, zero for the bank's first
// corner, so w starts from +0) and its running sum, over n (a multiple
// of 4) pixels of the target tg. kernels_amd64.s reads the fields at
// fixed offsets; TestSweepGroupLayout checks them.
type sweepGroup struct {
	r     [3]*float64
	w     [3]*float64
	scale [3]float64
	keep  [3]uint64
	sum   [3]float64
	tg    *float64
	n     int
	k     int
}

// costSensVec runs costSensAVX2 over the longest prefix of the chunk
// whose length is a multiple of 4, the corners three at a time in corner
// order (so every pixel's w still accumulates in corner order), and
// returns that length. Within a group the corners' sum chains are
// independent, so the CPU overlaps their latencies.
func costSensVec(cs []costCorner, tg []float64) int {
	n := len(tg) &^ 3
	if !kernelsAVX2OK || n == 0 {
		return 0
	}
	for lo := 0; lo < len(cs); lo += 3 {
		grp := cs[lo:min(lo+3, len(cs))]
		g := sweepGroup{tg: &tg[0], n: n, k: len(grp)}
		for i := range grp {
			c := &grp[i]
			g.r[i], g.w[i] = &c.r[:n][0], &c.w[:n][0]
			g.scale[i], g.sum[i] = c.scale, c.sum
			if !c.first {
				g.keep[i] = math.MaxUint64
			}
		}
		costSensAVX2(&g)
		for i := range grp {
			grp[i].sum = g.sum[i]
		}
	}
	return n
}

// Implemented in kernels_amd64.s; each is its Go loop (kernels.go) for
// lengths a multiple of 4 (the other operands at least as long), bit for
// bit.
//
//go:noescape
func reduceAVX2(d []float64, f []complex128, w float64)

//go:noescape
func adjointAVX2(e []complex128, w []float64)

//go:noescape
func setAVX2(dst, src []float64)

//go:noescape
func costSensAVX2(grp *sweepGroup)

// scaleBinsAVX2 and hermitianPairsAVX2 take a length that is a multiple
// of 2; hermitianPairsAVX2 pairs a[i] with b[len(b)−1−i] and needs a
// and b disjoint.
//
//go:noescape
func scaleBinsAVX2(dst, src []complex128, cr, ci float64)

//go:noescape
func hermitianPairsAVX2(a, b []complex128)

func scaleBinsVec(dst, src []complex128, c complex128) int {
	if !kernelsAVX2OK {
		return 0
	}
	n := len(dst) &^ 1
	if n > 0 {
		scaleBinsAVX2(dst[:n], src[:n], real(c), imag(c))
	}
	return n
}

// hermitianPairsVec runs hermitianPairsAVX2 over the longest prefix of a
// whose length is a multiple of 2 and the matching suffix of b, and
// returns that length.
func hermitianPairsVec(a, b []complex128) int {
	if !kernelsAVX2OK {
		return 0
	}
	n := len(a) &^ 1
	if n > 0 {
		hermitianPairsAVX2(a[:n], b[len(b)-n:])
	}
	return n
}
