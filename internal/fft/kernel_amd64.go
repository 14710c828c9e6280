package fft

import "lsopc/internal/grid"

// avx2Kernel runs the sweeps and the column passes' data movement in
// kernel_amd64.s, bit-identical to goKernel (see the assembly's
// comments).
var avx2Kernel = kernel{
	radix4First:   radix4FirstAVX2,
	stagePair:     stagePairAVX2,
	stage:         stageAVX2,
	gather:        gatherAVX2,
	gatherPairs:   gatherPairsAVX2,
	scatter:       scatterAVX2,
	scatterScaled: scatterScaledAVX2,
	scatterReal:   scatterRealAVX2,
	pack:          packAVX2,
}

// fastKernel is the kernel of plans of length ≥ 8: avx2Kernel when the
// CPU has AVX2 and the OS saves the YMM registers (grid.HasAVX2),
// goKernel otherwise. It is chosen once, here, and never changes.
var fastKernel = pickKernel()

func pickKernel() *kernel {
	if grid.HasAVX2() {
		return &avx2Kernel
	}
	return &goKernel
}

// Implemented in kernel_amd64.s. The kernels keep the Go loops'
// contracts and trust their lengths: len(x) a multiple of the block
// (4, 4h, 2h), h ≥ 2 a power of two, the twiddle slices at least h
// (stagePairAVX2's t2 2h) long. kernel.run slices them that way.
func radix4FirstAVX2(x []complex128, w2 complex128)
func stagePairAVX2(x []complex128, h int, t1, t2 []complex128)
func stageAVX2(x []complex128, h int, tw []complex128)

// The movement kernels move one full colBlock-wide block and trust
// their lengths too: s at least colBlock·h long, every source or
// destination row y reaching [y·w, y·w+colBlock) (twice that for
// gatherPairsAVX2 and in float64 for scatterRealAVX2), h = len(rev)
// ≥ 1, 0 ≤ lo ≤ hi ≤ h, and len(d) a multiple of 4 with r0 and r1 at
// least as long. transformCols, colRealBody and realRows check them.
//
//go:noescape
func gatherAVX2(s, src []complex128, rev []int32, w, lo, hi int)

//go:noescape
func gatherPairsAVX2(s, src []complex128, rev []int32, w, lo, hi int)

//go:noescape
func scatterAVX2(dst, s []complex128, w, h int)

//go:noescape
func scatterScaledAVX2(dst, s []complex128, w, h int, sc float64)

//go:noescape
func scatterRealAVX2(dst []float64, s []complex128, w, h int, sc float64)

//go:noescape
func packAVX2(d []complex128, r0, r1 []float64)

// unpackAVX2OK says whether realRows' unpack runs unpackAVX2 (the CPU
// has AVX2 and the OS saves the YMM registers). Unlike the sweeps it
// does not depend on the plan length. Chosen once, never changed.
var unpackAVX2OK = grid.HasAVX2()

// unpackLanes holds unpackAVX2's constants, in the order
// kernel_amd64.s reads them (32 bytes apart): 0.5, −0.5 and the sign of
// the imaginary lanes of two complex128, the conj.
var unpackLanes = [3][4]uint64{
	{0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000},
	{0xbfe0000000000000, 0xbfe0000000000000, 0xbfe0000000000000, 0xbfe0000000000000},
	{0, 1 << 63, 0, 1 << 63},
}

// unpackVec runs unpackAVX2 over the longest prefix of z0 whose length
// is a multiple of 2 (and the matching suffixes of e0 and e1), when the
// CPU has it, and returns that length.
func unpackVec(z0, z1, e0, e1 []complex128) int {
	if !unpackAVX2OK {
		return 0
	}
	n := len(z0) &^ 1
	if n > 0 {
		unpackAVX2(z0[:n], z1[:n], e0[len(e0)-n:], e1[len(e1)-n:])
	}
	return n
}

// unpackAVX2 is unpackGo for len(z0) a multiple of 2, every slice as
// long and the z slices disjoint from the e slices, bit for bit.
// Implemented in kernel_amd64.s.
//
//go:noescape
func unpackAVX2(z0, z1, e0, e1 []complex128)
