package core

import "lsopc/internal/grid"

// tailAVX2OK says whether the tail's per-pixel loops run their AVX2
// kernels: the CPU has AVX2 and the OS saves the YMM registers
// (grid.HasAVX2). It is chosen once, here, and never changes.
var tailAVX2OK = grid.HasAVX2()

// absMask clears the sign bit of four float64 lanes: velocityAVX2's |v|.
var absMask = [4]uint64{1<<63 - 1, 1<<63 - 1, 1<<63 - 1, 1<<63 - 1}

// gradSumsVec runs gradSumsAVX2 (gradNormAVX2 without withPrev) over
// the tailLanes chunks of chunkLen pixels at the start of g, G, gp and
// v, one chunk per lane, and writes their sums into the first
// tailLanes·numSums partials. It reports false, touching nothing, when
// the CPU lacks AVX2 or chunkLen is not a multiple of 4 (a chunk is
// tailRows rows, so it always is in the optimizer).
func gradSumsVec(partials, g, G, gp, v []float64, chunkLen int, withPrev bool) bool {
	if !tailAVX2OK || chunkLen%4 != 0 {
		return false
	}
	n := tailLanes * chunkLen
	var lanes [numSums][tailLanes]float64
	if withPrev {
		gradSumsAVX2(g[:n], G[:n], gp[:n], v[:n], chunkLen, &lanes)
	} else {
		gradNormAVX2(g[:n], G[:n], chunkLen, &lanes[sumGG])
	}
	for c := range tailLanes {
		for k := range numSums {
			partials[c*numSums+k] = lanes[k][c]
		}
	}
	return true
}

// velocityVec runs velocityAVX2 over the longest prefix of v whose
// length is a multiple of 4, when the CPU has it, and returns that
// length and the prefix's max|v|.
func velocityVec(v, g []float64, lambda float64) (int, float64) {
	n := len(v) &^ 3
	if !tailAVX2OK || n == 0 {
		return 0, 0
	}
	copyOnly := 0
	if lambda == 0 {
		copyOnly = 1
	}
	return n, velocityAVX2(v[:n], g[:n], lambda, copyOnly)
}

// Implemented in tail_amd64.s; each is its Go loop (tail.go) bit for
// bit. gradSumsAVX2 and gradNormAVX2 take tailLanes chunks of chunkLen
// (a multiple of 4) pixels, lane c running chunk c's sums, and write
// sums[k][c]; velocityAVX2 takes a length that is a multiple of 4 and
// runs velocityGo's λ = 0 loop when copyOnly is 1.
//
//go:noescape
func gradSumsAVX2(g, G, gp, v []float64, chunkLen int, sums *[numSums][tailLanes]float64)

//go:noescape
func gradNormAVX2(g, G []float64, chunkLen int, sums *[tailLanes]float64)

//go:noescape
func velocityAVX2(v, g []float64, lambda float64, copyOnly int) float64
