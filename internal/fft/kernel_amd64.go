package fft

import "lsopc/internal/grid"

// avx2Kernel runs the sweeps in kernel_amd64.s, two complex128 per YMM
// register, bit-identical to goKernel (see the assembly's header).
var avx2Kernel = kernel{radix4FirstAVX2, stagePairAVX2, stageAVX2}

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
