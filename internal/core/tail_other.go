//go:build !amd64

package core

// Without the amd64 assembly the Go loops are the tail's only kernels.
const tailAVX2OK = false

func gradSumsVec(partials, g, G, gp, v []float64, chunkLen int, withPrev bool) bool { return false }
func velocityVec(v, g []float64, lambda float64) (int, float64)                     { return 0, 0 }
