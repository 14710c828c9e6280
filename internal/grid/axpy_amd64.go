package grid

// axpyAVX2OK says whether AddScaled runs addScaledAVX2: the CPU has AVX2
// and the OS saves the YMM registers. It is chosen once, here, and never
// changes.
var axpyAVX2OK = cpuAVX2

// addScaledVec runs addScaledAVX2 over the longest prefix of f whose
// length is a multiple of 4, when the CPU has AVX2, and returns that
// length.
func addScaledVec(f, a []float64, s float64) int {
	if !axpyAVX2OK {
		return 0
	}
	n := len(f) &^ 3
	if n > 0 {
		addScaledAVX2(f[:n], a[:n], s)
	}
	return n
}

// addScaledAVX2 is addScaledGo for len(f) a multiple of 4 (a at least
// as long), bit for bit. Implemented in axpy_amd64.s.
//
//go:noescape
func addScaledAVX2(f, a []float64, s float64)
