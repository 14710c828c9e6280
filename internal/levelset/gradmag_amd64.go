package levelset

import (
	"math"

	"lsopc/internal/grid"
)

// gradMagAVX2OK says whether GradMagRows runs gradMagAVX2: the CPU has
// AVX2 and the OS saves the YMM registers (grid.HasAVX2). It is chosen
// once, here, and never changes.
var gradMagAVX2OK = grid.HasAVX2()

// hypotLanes holds gradMagAVX2's constants, each repeated over the four
// lanes of a YMM register, in the order gradmag_amd64.s reads them (32
// bytes apart): the central difference's 0.5, the magnitude mask, the 1
// of 1 + (min/max)², +Inf and the NaN that math.Hypot returns on amd64
// ($GOROOT/src/math/hypot_amd64.s).
var hypotLanes = func() (c [5][4]uint64) {
	for i, v := range [...]uint64{
		math.Float64bits(0.5),
		1<<63 - 1,
		math.Float64bits(1),
		math.Float64bits(math.Inf(1)),
		0x7FF8000000000001,
	} {
		c[i] = [4]uint64{v, v, v, v}
	}
	return c
}()

// gradMagVec runs gradMagAVX2 over the longest prefix of out whose
// length is a multiple of 4, when the CPU has it, and returns that
// length.
func gradMagVec(out, row, up, down []float64, k float64) int {
	if !gradMagAVX2OK {
		return 0
	}
	n := len(out) &^ 3
	if n > 0 {
		gradMagAVX2(out[:n], row[:n+2], up[:n], down[:n], k)
	}
	return n
}

// gradMagAVX2 is gradMagGo for len(out) a multiple of 4 (row 2 longer,
// up and down as long), bit for bit. Implemented in gradmag_amd64.s.
//
//go:noescape
func gradMagAVX2(out, row, up, down []float64, k float64)
