package fft

import "lsopc/internal/grid"

// The reference 2-D algorithm the batch passes are held bit-identical
// to: a row pass, then a column pass, each running Plan.Forward or
// Plan.Inverse (with its own 1/n) on one contiguous copy of a line at a
// time, plus the packed-pair row pass of the real-input forward. It is
// deliberately the plain statement of the algorithm: no batching, no
// banding, no bit-reversed gathers, no folded normalisation.

// refTransform transforms c in place: rows, then columns.
func refTransform(c *grid.CField, inverse bool) {
	row, col := CachedPlan(c.W), CachedPlan(c.H)
	for y := 0; y < c.H; y++ {
		ref1D(row, c.Row(y), inverse)
	}
	refColumns(c, func(x int, v []complex128) { ref1D(col, v, inverse) })
}

func ref1D(p *Plan, x []complex128, inverse bool) {
	if inverse {
		p.Inverse(x)
	} else {
		p.Forward(x)
	}
}

// refColumns hands every column of c to f as a contiguous copy and
// writes the copy back.
func refColumns(c *grid.CField, f func(x int, v []complex128)) {
	v := make([]complex128, c.H)
	for x := 0; x < c.W; x++ {
		for y := range v {
			v[y] = c.Data[y*c.W+x]
		}
		f(x, v)
		for y := range v {
			c.Data[y*c.W+x] = v[y]
		}
	}
}

// refForwardReal is the real-input forward: each row pair packed as one
// complex row, transformed, unpacked into both rows' spectra by
// Hermitian symmetry, then the complex column pass.
func refForwardReal(src *grid.Field) *grid.CField {
	w := src.W
	c := grid.NewCField(w, src.H)
	row := CachedPlan(w)
	for y := 0; y < src.H; y += 2 {
		z, r0, r1 := c.Row(y), src.Row(y), src.Row(y+1)
		for x := range z {
			z[x] = complex(r0[x], r1[x])
		}
		row.Forward(z)
		d0, d1 := make([]complex128, w), c.Row(y+1)
		for k := range z {
			zk, zm := z[k], z[(w-k)%w]
			zmk := complex(real(zm), -imag(zm))
			d0[k] = (zk + zmk) * 0.5
			d1[k] = (zk - zmk) * complex(0, -0.5)
		}
		copy(z, d0)
	}
	col := CachedPlan(c.H)
	refColumns(c, func(x int, v []complex128) { col.Forward(v) })
	return c
}

// refInverseReal is the real-output inverse of the spectrum c (a
// Hermitian one for a meaningful result): the complex row pass, then
// each column pair (2x, 2x+1) inverse-transformed as the one sequence
// Y₀ + i·Y₁, column 2x taken from its real and 2x+1 from its imaginary
// part.
func refInverseReal(c *grid.CField) *grid.Field {
	w := c.W
	rows := c.Clone()
	row, col := CachedPlan(w), CachedPlan(c.H)
	for y := 0; y < c.H; y++ {
		row.Inverse(rows.Row(y))
	}
	out := grid.NewField(w, c.H)
	v := make([]complex128, c.H)
	for x := 0; x < w; x += 2 {
		for y := range v {
			a, b := rows.Data[y*w+x], rows.Data[y*w+x+1]
			v[y] = complex(real(a)-imag(b), imag(a)+real(b))
		}
		col.Inverse(v)
		for y, z := range v {
			out.Data[y*w+x], out.Data[y*w+x+1] = real(z), imag(z)
		}
	}
	return out
}
