package fft

// avx2Kernel runs the sweeps in kernel_amd64.s, two complex128 per YMM
// register, bit-identical to goKernel (see the assembly's header).
var avx2Kernel = kernel{radix4FirstAVX2, stagePairAVX2, stageAVX2}

// fastKernel is the kernel of plans of length ≥ 8: avx2Kernel when the
// CPU has AVX2 and the OS saves the YMM registers, goKernel otherwise.
// It is chosen once, here, and never changes.
var fastKernel = pickKernel()

func pickKernel() *kernel {
	if hasAVX2() {
		return &avx2Kernel
	}
	return &goKernel
}

// hasAVX2 reports whether the CPU supports AVX2 (CPUID leaf 7, EBX bit
// 5) and the OS has enabled the XMM and YMM state that XGETBV reports
// (XCR0 bits 1 and 2; CPUID leaf 1, ECX bit 27 says XGETBV exists).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// Implemented in kernel_amd64.s. The kernels keep the Go loops'
// contracts and trust their lengths: len(x) a multiple of the block
// (4, 4h, 2h), h ≥ 2 a power of two, the twiddle slices at least h
// (stagePairAVX2's t2 2h) long. kernel.run slices them that way.
func radix4FirstAVX2(x []complex128, w2 complex128)
func stagePairAVX2(x []complex128, h int, t1, t2 []complex128)
func stageAVX2(x []complex128, h int, tw []complex128)
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
