package fft

// The Go loops of the column passes' data movement. They run the
// narrower-than-colBlock tails everywhere and, wrapped to a full block,
// are goKernel's movement (the AVX2 kernel's reference). In all of
// them the column scratch s holds column c at s[c·h:], the source or
// destination row y starts at [y·w:], and h is the column length.

// gatherCols copies the nb columns at the start of src into s, each row
// y at its bit-reversed slot rev[y] (h = len(rev)), so the column
// transform skips its swap pass: a permutation only moves data, so this
// is exact. Rows [lo, hi) are not read: their slots get exact zeros,
// the rows a banded pass treats as zero.
func gatherCols(s, src []complex128, rev []int32, w, nb, lo, hi int) {
	h := len(rev)
	for y, r := range rev {
		if y >= lo && y < hi {
			for c := 0; c < nb; c++ {
				s[c*h+int(r)] = 0
			}
			continue
		}
		for c, v := range src[y*w : y*w+nb] {
			s[c*h+int(r)] = v
		}
	}
}

// gatherPairs is gatherCols for the np column pairs (2c, 2c+1) at the
// start of src, each packed as the one complex sequence Y₀ + i·Y₁ of
// InverseRealBanded: one subtraction and one addition per element.
func gatherPairs(s, src []complex128, rev []int32, w, np, lo, hi int) {
	h := len(rev)
	for y, r := range rev {
		if y >= lo && y < hi {
			for c := 0; c < np; c++ {
				s[c*h+int(r)] = 0
			}
			continue
		}
		row := src[y*w : y*w+2*np]
		for c := 0; c < np; c++ {
			a, b := row[2*c], row[2*c+1]
			s[c*h+int(r)] = complex(real(a)-imag(b), imag(a)+real(b))
		}
	}
}

// scatterCols copies the nb scratch columns, in natural row order, to
// the nb columns at the start of dst.
func scatterCols(dst, s []complex128, w, h, nb int) {
	for y := 0; y < h; y++ {
		row := dst[y*w : y*w+nb]
		for c := range row {
			row[c] = s[c*h+y]
		}
	}
}

// scatterColsScaled is scatterCols with both parts of every element
// multiplied by sc.
func scatterColsScaled(dst, s []complex128, w, h, nb int, sc float64) {
	for y := 0; y < h; y++ {
		row := dst[y*w : y*w+nb]
		for c := range row {
			z := s[c*h+y]
			row[c] = complex(real(z)*sc, imag(z)*sc)
		}
	}
}

// scatterReal writes the np scratch columns, scaled by sc, to the real
// column pairs (2c, 2c+1) at the start of dst: the real part to 2c and
// the imaginary part to 2c+1.
func scatterReal(dst []float64, s []complex128, w, h, np int, sc float64) {
	for y := 0; y < h; y++ {
		row := dst[y*w : y*w+2*np]
		for c := 0; c < np; c++ {
			z := s[c*h+y]
			row[2*c], row[2*c+1] = real(z)*sc, imag(z)*sc
		}
	}
}

// packRows packs the real rows r0 and r1 into the complex row d as
// r0 + i·r1.
func packRows(d []complex128, r0, r1 []float64) {
	r0, r1 = r0[:len(d)], r1[:len(d)]
	for x := range d {
		d[x] = complex(r0[x], r1[x])
	}
}

// The full-block forms of the loops above: goKernel's movement.

func gatherBlock(s, src []complex128, rev []int32, w, lo, hi int) {
	gatherCols(s, src, rev, w, colBlock, lo, hi)
}

func gatherPairsBlock(s, src []complex128, rev []int32, w, lo, hi int) {
	gatherPairs(s, src, rev, w, colBlock, lo, hi)
}

func scatterBlock(dst, s []complex128, w, h int) { scatterCols(dst, s, w, h, colBlock) }

func scatterScaledBlock(dst, s []complex128, w, h int, sc float64) {
	scatterColsScaled(dst, s, w, h, colBlock, sc)
}

func scatterRealBlock(dst []float64, s []complex128, w, h int, sc float64) {
	scatterReal(dst, s, w, h, colBlock, sc)
}
