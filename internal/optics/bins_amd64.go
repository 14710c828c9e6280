package optics

import "lsopc/internal/grid"

// binsAVX2OK says whether the per-bin loops of bins.go run their AVX2
// kernels: the CPU has AVX2 and the OS saves the YMM registers
// (grid.HasAVX2). It is chosen once, here, and never changes.
var binsAVX2OK = grid.HasAVX2()

func mulBinsVec(dst, src, box []complex128) int {
	if !binsAVX2OK {
		return 0
	}
	n := len(dst) &^ 1
	if n > 0 {
		mulBinsAVX2(dst[:n], src[:n], box[:n])
	}
	return n
}

func accumFlipVec(dst, src, box []complex128, w complex128) int {
	if !binsAVX2OK {
		return 0
	}
	n := len(dst) &^ 1
	if n > 0 {
		accumFlipAVX2(dst[:n], src[:n], box[len(box)-n:], real(w), imag(w))
	}
	return n
}

// Implemented in bins_amd64.s; each is its Go loop (bins.go) for a
// length that is a multiple of 2, bit for bit. accumFlipAVX2 pairs
// dst[i] with box[len(box)−1−i], as accumFlipGo does, so its box is the
// last len(dst) bins of the Go loop's.
//
//go:noescape
func mulBinsAVX2(dst, src, box []complex128)

//go:noescape
func accumFlipAVX2(dst, src, box []complex128, wr, wi float64)
