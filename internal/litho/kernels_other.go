//go:build !amd64

package litho

// Without the amd64 assembly the Go loops are the only per-pixel
// kernels.
const kernelsAVX2OK = false

func reduceVec(d []float64, f []complex128, w float64) int { return 0 }
func adjointVec(e []complex128, w []float64) int           { return 0 }
func setVec(dst, src []float64) int                        { return 0 }
func scaleBinsVec(dst, src []complex128, c complex128) int { return 0 }
func hermitianPairsVec(a, b []complex128) int              { return 0 }
func costSensVec(cs []costCorner, tg []float64) int        { return 0 }
