package grid

// The one CPU-feature probe of the repository: the assembly kernels here
// (the resist sigmoid), in internal/fft (the butterflies and the column
// passes' gathers, scatters and real-row pack), in internal/levelset
// (|∇ψ|) and in internal/litho (the SOCS reduce, the adjoint product,
// the gradient apply and the resist sweep's cost and sensitivity pass)
// are chosen from it once, at package init, and never change afterwards.
var cpuAVX2, cpuFMA = probeCPU()

// HasAVX2 reports whether the CPU supports AVX2 and the OS saves the
// YMM registers, so 256-bit integer and floating-point instructions
// may run.
func HasAVX2() bool { return cpuAVX2 }

// probeCPU reads AVX2 (CPUID leaf 7, EBX bit 5) and FMA (leaf 1, ECX
// bit 12). Both need the OS to have enabled the XMM and YMM state that
// XGETBV reports (XCR0 bits 1 and 2; leaf 1, ECX bit 27 says XGETBV
// exists, bit 28 that AVX does); without it neither is reported.
func probeCPU() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0, ecx1&fmaBit != 0
}

// Implemented in cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
