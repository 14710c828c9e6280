package grid

import (
	"fmt"
	"math/cmplx"
)

// CField is a dense 2-D array of complex128 in row-major order, used for
// frequency-domain data and coherent field amplitudes.
type CField struct {
	W, H int
	Data []complex128
}

// NewCField allocates a zero-initialised w×h complex field.
func NewCField(w, h int) *CField {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid cfield size %dx%d", w, h))
	}
	return &CField{W: w, H: h, Data: make([]complex128, w*h)}
}

// Clone returns a deep copy of c.
func (c *CField) Clone() *CField {
	g := NewCField(c.W, c.H)
	copy(g.Data, c.Data)
	return g
}

// At returns the value at column x, row y.
func (c *CField) At(x, y int) complex128 { return c.Data[y*c.W+x] }

// Set stores v at column x, row y.
func (c *CField) Set(x, y int, v complex128) { c.Data[y*c.W+x] = v }

// Row returns row y aliasing the field's storage.
func (c *CField) Row(y int) []complex128 { return c.Data[y*c.W : (y+1)*c.W] }

// SameShape reports whether c and g have identical dimensions.
func (c *CField) SameShape(g *CField) bool { return c.W == g.W && c.H == g.H }

func (c *CField) mustMatch(g *CField, op string) {
	if !c.SameShape(g) {
		panic(fmt.Sprintf("grid: %s: shape mismatch %dx%d vs %dx%d", op, c.W, c.H, g.W, g.H))
	}
}

// Zero sets every element to 0.
func (c *CField) Zero() {
	for i := range c.Data {
		c.Data[i] = 0
	}
}

// CopyFrom copies g into c. Shapes must match.
func (c *CField) CopyFrom(g *CField) {
	c.mustMatch(g, "CopyFrom")
	copy(c.Data, g.Data)
}

// SetReal sets c to f with zero imaginary parts. Shapes must match.
func (c *CField) SetReal(f *Field) {
	if c.W != f.W || c.H != f.H {
		panic(fmt.Sprintf("grid: SetReal: shape mismatch %dx%d vs %dx%d", c.W, c.H, f.W, f.H))
	}
	for i, v := range f.Data {
		c.Data[i] = complex(v, 0)
	}
}

// Real writes the real parts of c into f. Shapes must match.
func (c *CField) Real(f *Field) {
	if c.W != f.W || c.H != f.H {
		panic(fmt.Sprintf("grid: Real: shape mismatch %dx%d vs %dx%d", c.W, c.H, f.W, f.H))
	}
	for i, v := range c.Data {
		f.Data[i] = real(v)
	}
}

// Mul sets c = a ⊙ b element-wise.
func (c *CField) Mul(a, b *CField) {
	c.mustMatch(a, "Mul")
	c.mustMatch(b, "Mul")
	for i := range c.Data {
		c.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Add sets c = a + b element-wise.
func (c *CField) Add(a, b *CField) {
	c.mustMatch(a, "Add")
	c.mustMatch(b, "Add")
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddScaled sets c = c + s·a.
func (c *CField) AddScaled(a *CField, s complex128) {
	c.mustMatch(a, "AddScaled")
	for i := range c.Data {
		c.Data[i] += s * a.Data[i]
	}
}

// Scale sets c = s·a.
func (c *CField) Scale(a *CField, s complex128) {
	c.mustMatch(a, "Scale")
	for i := range c.Data {
		c.Data[i] = s * a.Data[i]
	}
}

// Conj sets c = conj(a).
func (c *CField) Conj(a *CField) {
	c.mustMatch(a, "Conj")
	for i := range c.Data {
		c.Data[i] = cmplx.Conj(a.Data[i])
	}
}

// AbsSqInto writes |c|² element-wise into f.
func (c *CField) AbsSqInto(f *Field) {
	if c.W != f.W || c.H != f.H {
		panic(fmt.Sprintf("grid: AbsSqInto: shape mismatch %dx%d vs %dx%d", c.W, c.H, f.W, f.H))
	}
	for i, v := range c.Data {
		re, im := real(v), imag(v)
		f.Data[i] = re*re + im*im
	}
}

// AccumAbsSq adds w·|c|² element-wise into f, fusing the per-kernel
// intensity accumulation of the SOCS sum (Eq. 1).
func (c *CField) AccumAbsSq(f *Field, w float64) {
	if c.W != f.W || c.H != f.H {
		panic(fmt.Sprintf("grid: AccumAbsSq: shape mismatch %dx%d vs %dx%d", c.W, c.H, f.W, f.H))
	}
	for i, v := range c.Data {
		re, im := real(v), imag(v)
		f.Data[i] += w * (re*re + im*im)
	}
}

// Norm2 returns Σ |c|².
func (c *CField) Norm2() float64 {
	var s float64
	for _, v := range c.Data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return s
}

// MaxAbs returns max |c(x,y)|.
func (c *CField) MaxAbs() float64 {
	var m float64
	for _, v := range c.Data {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// FlipInto writes the index-reversed field a(-x mod W, -y mod H) into c.
// In the frequency domain this realises spectrum(flip(h)), the adjoint
// ("†") kernel used by the ILT gradient (Eq. 11).
func (c *CField) FlipInto(a *CField) {
	c.mustMatch(a, "FlipInto")
	if c == a {
		panic("grid: FlipInto: receiver must not alias the source")
	}
	for y := 0; y < c.H; y++ {
		fy := (c.H - y) % c.H
		src := a.Row(y)
		for x := 0; x < c.W; x++ {
			fx := (c.W - x) % c.W
			c.Data[fy*c.W+fx] = src[x]
		}
	}
}

// Equal reports whether c and g have the same shape and all elements
// are within tol of each other (in modulus of the difference).
func (c *CField) Equal(g *CField, tol float64) bool {
	if !c.SameShape(g) {
		return false
	}
	for i := range c.Data {
		if cmplx.Abs(c.Data[i]-g.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String summarises the complex field for debugging.
func (c *CField) String() string {
	return fmt.Sprintf("CField(%dx%d, maxAbs=%g, energy=%g)", c.W, c.H, c.MaxAbs(), c.Norm2())
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
