package litho

// The per-pixel and per-bin loops of a simulate call, as Go loops. They
// are the reference of the AVX2 kernels in kernels_amd64.s, which give
// the same bits; the kernels run the elements up to the last multiple
// of 4 (of 2 for the complex band loops) when the CPU has AVX2
// (kernels_amd64.go), the Go loops the rest, and all of them
// elsewhere. A two-NaN operation returns its first source's NaN, and
// which operand of a commutative operation comes first is the code
// generator's choice, made per compiled body. So the Go loops are never
// inlined: each stays one body, whose operand order in the default
// build the kernels copy (a race-detector build may order them
// otherwise).

// reduce adds w·|f[i]|² into d[i] for every i of d (f at least as long):
// one kernel's term of the SOCS sum.
func reduce(d []float64, f []complex128, w float64) {
	n := reduceVec(d, f, w)
	reduceGo(d[n:], f[n:], w)
}

//go:noinline
func reduceGo(d []float64, f []complex128, w float64) {
	f = f[:len(d)]
	for i, v := range f {
		re, im := real(v), imag(v)
		d[i] += w * (re*re + im*im)
	}
}

// adjointProduct sets e[j] = complex(w[j], 0)·conj(e[j]) for every j of
// e (w at least as long): the adjoint's W ⊙ conj(E_k). Go's complex
// multiply keeps the products by the zero imaginary part, which decide
// the signs of zeros and carry NaNs, so the kernel computes them too.
func adjointProduct(e []complex128, w []float64) {
	n := adjointVec(e, w)
	adjointGo(e[n:], w[n:])
}

//go:noinline
func adjointGo(e []complex128, w []float64) {
	w = w[:len(e)]
	for j, v := range e {
		e[j] = complex(w[j], 0) * complex(real(v), -imag(v))
	}
}

// setInto sets dst[i] = 0 + src[i] for every i of dst (src at least as
// long): the bits dst[i] += src[i] gives on a cleared dst, −0 turned
// into +0.
func setInto(dst, src []float64) {
	n := setVec(dst, src)
	setGo(dst[n:], src[n:])
}

//go:noinline
func setGo(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = 0 + v
	}
}

// scaleBins sets dst[i] = src[i]·c for every i of dst (src at least as
// long): the spectral band copies' rescale by complex(scale, 0). Go's
// complex multiply keeps the products by the zero imaginary part, so
// the kernel computes them too.
func scaleBins(dst, src []complex128, c complex128) {
	n := scaleBinsVec(dst, src, c)
	scaleBinsGo(dst[n:], src[n:], c)
}

//go:noinline
func scaleBinsGo(dst, src []complex128, c complex128) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = v * c
	}
}

// hermitianPairs sets, for every i of a with j = len(b)−1−i (b as
// long), h = ((a[i].re + b[j].re)/2, (a[i].im − b[j].im)/2), then
// a[i] = h and b[j] = conj(h): each pair of mirrored bins to its
// Hermitian part. a and b are disjoint or, for one bin paired with
// itself, the same single bin, which ends as conj(h).
func hermitianPairs(a, b []complex128) {
	n := hermitianPairsVec(a, b)
	hermitianPairsGo(a[n:], b[:len(b)-n])
}

//go:noinline
func hermitianPairsGo(a, b []complex128) {
	b = b[:len(a)]
	for i, x := range a {
		j := len(b) - 1 - i
		y := b[j]
		h := complex((real(x)+real(y))/2, (imag(x)-imag(y))/2)
		a[i], b[j] = h, complex(real(h), -imag(h))
	}
}

// costCorner is one corner's operands of the resist sweep's cost and
// sensitivity pass over one chunk: its resist image r, its bank's
// sensitivity w (the bank's first corner sets it, later ones
// accumulate), its sensitivity factor and its running cost sum.
type costCorner struct {
	r, w  []float64
	scale float64
	first bool
	sum   float64
}

// costSens runs the cost and sensitivity pass of every corner of cs over
// one chunk with resist target tg (every r and w as long as tg): per
// corner sum += (r−tg)² in ascending j, and per pixel, in corner order,
// w += scale·(r−tg)·r·(1−r), where the bank's first corner starts from 0
// (0 + x, which turns −0 into +0).
func costSens(cs []costCorner, tg []float64) {
	n := costSensVec(cs, tg)
	for i := range cs {
		c := &cs[i]
		w := c.w[n:]
		if c.first {
			clear(w)
		}
		c.sum = costSensGo(w, c.r[n:], tg[n:], c.scale, c.sum)
	}
}

// costSensGo is one corner's pass over w, r and tg (all as long as r),
// accumulating into w, and returns sum plus the squared residuals added
// in ascending j.
//
//go:noinline
func costSensGo(w, r, tg []float64, scale, sum float64) float64 {
	w, tg = w[:len(r)], tg[:len(r)]
	for j, rv := range r {
		d := rv - tg[j]
		sum += d * d
		w[j] += scale * d * rv * (1 - rv)
	}
	return sum
}
