//go:build !amd64

package optics

// Without the amd64 assembly the Go loops are the only per-bin kernels.
const binsAVX2OK = false

func mulBinsVec(dst, src, box []complex128) int                 { return 0 }
func accumFlipVec(dst, src, box []complex128, w complex128) int { return 0 }
