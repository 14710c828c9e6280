//go:build !amd64

package levelset

// Without the amd64 assembly the Go loop is the only |∇ψ| kernel:
// math.Hypot there is the portable hypot, not the archHypot the
// assembly replicates.
const gradMagAVX2OK = false

func gradMagVec(out, row, up, down []float64, k float64) int { return 0 }
