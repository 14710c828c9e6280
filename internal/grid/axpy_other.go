//go:build !amd64

package grid

// Without the amd64 assembly the Go loop is the only axpy kernel.
const axpyAVX2OK = false

func addScaledVec(f, a []float64, s float64) int { return 0 }
