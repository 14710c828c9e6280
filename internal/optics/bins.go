package optics

// The per-bin loops of the band-box multiplies, as Go loops. They are
// the reference of the AVX2 kernels in bins_amd64.s, which give the
// same bits; the kernels run the bins up to the last multiple of 2
// when the CPU has AVX2 (bins_amd64.go), the Go loops the rest, and all
// of them elsewhere. A two-NaN operation returns its first source's
// NaN, and which operand of a commutative operation comes first is the
// code generator's choice, made per compiled body. So the Go loops are
// never inlined: each stays one body, whose operand order the kernels
// copy.

// mulBins sets dst[i] = src[i]·box[i] for every i of dst (src and box
// at least as long), and dst[i] = +0 where box[i] == 0: a zero-valued
// kernel bin is skipped, as the product would turn a NaN or ±Inf of
// src into a NaN.
func mulBins(dst, src, box []complex128) {
	n := mulBinsVec(dst, src, box)
	mulBinsGo(dst[n:], src[n:], box[n:])
}

//go:noinline
func mulBinsGo(dst, src, box []complex128) {
	src, box = src[:len(dst)], box[:len(dst)]
	for i, c := range box {
		if c == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = src[i] * c
	}
}

// accumFlip sets dst[i] += w·src[i]·box[len(box)−1−i] for every i of
// dst (src and box as long), skipping the bins whose box value is 0:
// one kernel's flipped-spectrum term of the adjoint, whose box columns
// run opposite to the grid's.
func accumFlip(dst, src, box []complex128, w complex128) {
	n := accumFlipVec(dst, src, box, w)
	accumFlipGo(dst[n:], src[n:], box[:len(box)-n], w)
}

//go:noinline
func accumFlipGo(dst, src, box []complex128, w complex128) {
	src, box = src[:len(dst)], box[:len(dst)]
	for i := range dst {
		c := box[len(box)-1-i]
		if c == 0 {
			continue
		}
		dst[i] += w * src[i] * c
	}
}
