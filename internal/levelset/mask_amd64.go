package levelset

// oneLanes holds 1.0 in four lanes: the mask value maskAVX2 writes
// inside.
var oneLanes = [4]float64{1, 1, 1, 1}

// maskVec runs maskAVX2 over the longest prefix of psi whose length is
// a multiple of 4, when the CPU has AVX2, and returns that length.
func maskVec(dst, psi []float64) int {
	if !gradMagAVX2OK {
		return 0
	}
	n := len(psi) &^ 3
	if n > 0 {
		maskAVX2(dst[:n], psi[:n])
	}
	return n
}

// maskAVX2 is maskGo for len(psi) a multiple of 4 (dst as long), bit
// for bit. Implemented in mask_amd64.s.
//
//go:noescape
func maskAVX2(dst, psi []float64)
