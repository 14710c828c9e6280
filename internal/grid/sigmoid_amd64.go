package grid

import "math"

// sigmoidAVX2OK says whether SigmoidInto runs sigmoidAVX2: the CPU has
// AVX2 and FMA and the OS saves the YMM registers. It is chosen once,
// here, and never changes.
var sigmoidAVX2OK = cpuAVX2 && cpuFMA

// sigmoidLanes holds sigmoidAVX2's constants, each repeated over the
// four lanes of a YMM register, in the order sigmoid_amd64.s reads them
// (32 bytes apart). They are the Go loop's own constants converted the
// same way, so both round with the same values.
var sigmoidLanes = func() (c [13][4]uint64) {
	for i, v := range [...]uint64{
		math.Float64bits(invLn2N),
		math.Float64bits(expShift),
		math.Float64bits(ln2HiN),
		math.Float64bits(ln2LoN),
		math.Float64bits(-expFast),
		math.Float64bits(expFast),
		math.Float64bits(1.0 / 120),
		math.Float64bits(1.0 / 24),
		math.Float64bits(1.0 / 6),
		math.Float64bits(0.5),
		math.Float64bits(1),
		expN - 1,
		1023 << expBits,
	} {
		c[i] = [4]uint64{v, v, v, v}
	}
	return c
}()

// sigmoidVec runs sigmoidAVX2 over the longest prefix of dst whose
// length is a multiple of 4, when the CPU has it, and returns that
// length and the kernel's slow flag.
func sigmoidVec(dst, a []float64, dose, s, t float64) (n int, slow bool) {
	if !sigmoidAVX2OK {
		return 0, false
	}
	n = len(dst) &^ 3
	return n, sigmoidAVX2(dst[:n], a[:n], dose, -s, t)
}

// sigmoidAVX2 is sigmoidGo for len(dst) a multiple of 4 (a at least as
// long), with ns = −s, bit for bit. Implemented in sigmoid_amd64.s.
//
//go:noescape
func sigmoidAVX2(dst, a []float64, dose, ns, t float64) (slow bool)
