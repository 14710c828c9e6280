// Package grid provides dense 2-D scalar fields (real and complex) and
// the fused element-wise operations the lithography pipeline is built
// on. Fields are stored row-major in a single backing slice so they can
// be processed linearly, sliced into rows without copying, and handed to
// the FFT engine as contiguous memory.
//
// All coordinates follow image convention: x is the column index,
// y the row index, and element (x, y) lives at Data[y*W+x].
package grid

import (
	"fmt"
	"math"
)

// Field is a dense 2-D array of float64 in row-major order.
//
// The zero value is an empty field; use NewField to allocate one.
// Methods with a destination receiver overwrite the receiver and are
// safe to call with the receiver aliasing one of the operands.
type Field struct {
	W, H int
	Data []float64
}

// NewField allocates a zero-initialised w×h field.
// It panics if either dimension is not positive.
func NewField(w, h int) *Field {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid field size %dx%d", w, h))
	}
	return &Field{W: w, H: h, Data: make([]float64, w*h)}
}

// NewFieldLike allocates a zero field with the same shape as f.
func NewFieldLike(f *Field) *Field { return NewField(f.W, f.H) }

// FieldFromData wraps an existing slice as a w×h field without copying.
// It panics if len(data) != w*h.
func FieldFromData(w, h int, data []float64) *Field {
	if len(data) != w*h {
		panic(fmt.Sprintf("grid: data length %d does not match %dx%d", len(data), w, h))
	}
	return &Field{W: w, H: h, Data: data}
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	g := NewField(f.W, f.H)
	copy(g.Data, f.Data)
	return g
}

// At returns the value at column x, row y.
func (f *Field) At(x, y int) float64 { return f.Data[y*f.W+x] }

// Set stores v at column x, row y.
func (f *Field) Set(x, y int, v float64) { f.Data[y*f.W+x] = v }

// Row returns row y as a slice aliasing the field's storage.
func (f *Field) Row(y int) []float64 { return f.Data[y*f.W : (y+1)*f.W] }

// SameShape reports whether f and g have identical dimensions.
func (f *Field) SameShape(g *Field) bool { return f.W == g.W && f.H == g.H }

func (f *Field) mustMatch(g *Field, op string) {
	if !f.SameShape(g) {
		panic(fmt.Sprintf("grid: %s: shape mismatch %dx%d vs %dx%d", op, f.W, f.H, g.W, g.H))
	}
}

// Fill sets every element to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Zero sets every element to 0.
func (f *Field) Zero() { f.Fill(0) }

// CopyFrom copies g into f. Shapes must match.
func (f *Field) CopyFrom(g *Field) {
	f.mustMatch(g, "CopyFrom")
	copy(f.Data, g.Data)
}

// Add sets f = a + b element-wise.
func (f *Field) Add(a, b *Field) {
	f.mustMatch(a, "Add")
	f.mustMatch(b, "Add")
	for i := range f.Data {
		f.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub sets f = a - b element-wise.
func (f *Field) Sub(a, b *Field) {
	f.mustMatch(a, "Sub")
	f.mustMatch(b, "Sub")
	for i := range f.Data {
		f.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul sets f = a ⊙ b (Hadamard product).
func (f *Field) Mul(a, b *Field) {
	f.mustMatch(a, "Mul")
	f.mustMatch(b, "Mul")
	for i := range f.Data {
		f.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale sets f = s·a.
func (f *Field) Scale(a *Field, s float64) {
	f.mustMatch(a, "Scale")
	for i := range f.Data {
		f.Data[i] = s * a.Data[i]
	}
}

// AddScaled sets f = f + s·a (axpy).
func (f *Field) AddScaled(a *Field, s float64) {
	f.mustMatch(a, "AddScaled")
	n := addScaledVec(f.Data, a.Data, s)
	addScaledGo(f.Data[n:], a.Data[n:], s)
}

// addScaledGo sets f[i] += s·a[i] for every i of f (a at least as long).
// It is the reference of the AVX2 kernel, which gives the same bits,
// and runs the elements the kernel leaves. Never inlined, so the one
// compiled body whose operand order the kernel copies is the one that
// runs.
//
//go:noinline
func addScaledGo(f, a []float64, s float64) {
	a = a[:len(f)]
	for i := range f {
		f[i] += s * a[i]
	}
}

// Dot returns the inner product Σ f⊙g.
func (f *Field) Dot(g *Field) float64 {
	f.mustMatch(g, "Dot")
	var s float64
	for i := range f.Data {
		s += f.Data[i] * g.Data[i]
	}
	return s
}

// Sum returns Σ f.
func (f *Field) Sum() float64 {
	var s float64
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Norm2 returns the squared Frobenius norm ‖f‖².
func (f *Field) Norm2() float64 { return f.Dot(f) }

// Norm returns the Frobenius norm ‖f‖.
func (f *Field) Norm() float64 { return math.Sqrt(f.Norm2()) }

// MaxAbs returns max |f(x,y)|.
func (f *Field) MaxAbs() float64 {
	var m float64
	for _, v := range f.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// MinMax returns the minimum and maximum element values.
func (f *Field) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// CountAbove returns the number of elements strictly greater than t.
func (f *Field) CountAbove(t float64) int {
	n := 0
	for _, v := range f.Data {
		if v > t {
			n++
		}
	}
	return n
}

// Threshold sets f(x,y) = 1 where a(x,y) ≥ t and 0 elsewhere
// (the constant-threshold resist model, Eq. 2 of the paper).
func (f *Field) Threshold(a *Field, t float64) {
	f.mustMatch(a, "Threshold")
	for i, v := range a.Data {
		if v >= t {
			f.Data[i] = 1
		} else {
			f.Data[i] = 0
		}
	}
}

// Sigmoid sets f = 1/(1+exp(-s·(a-t))), the differentiable resist model
// (Eq. 8 of the paper) with steepness s and threshold t.
func (f *Field) Sigmoid(a *Field, s, t float64) {
	f.mustMatch(a, "Sigmoid")
	SigmoidInto(f.Data, a.Data, s, t)
}

// XORCount returns the number of positions where exactly one of f, g is
// nonzero, treating any value > 0.5 as set. This is the PV-band area
// when f and g are binary printed images.
func (f *Field) XORCount(g *Field) int {
	f.mustMatch(g, "XORCount")
	n := 0
	for i := range f.Data {
		a := f.Data[i] > 0.5
		b := g.Data[i] > 0.5
		if a != b {
			n++
		}
	}
	return n
}

// Binarize sets f(x,y) = 1 where a(x,y) > 0.5, else 0.
func (f *Field) Binarize(a *Field) { f.Threshold(a, 0.5) }

// SubRegion copies the w×h window of f whose top-left corner is (x0,y0)
// into a new field. It panics if the window exceeds the field bounds.
func (f *Field) SubRegion(x0, y0, w, h int) *Field {
	if x0 < 0 || y0 < 0 || x0+w > f.W || y0+h > f.H {
		panic(fmt.Sprintf("grid: SubRegion [%d,%d,%d,%d] out of %dx%d", x0, y0, w, h, f.W, f.H))
	}
	out := NewField(w, h)
	for y := 0; y < h; y++ {
		copy(out.Row(y), f.Row(y0 + y)[x0:x0+w])
	}
	return out
}

// Downsample returns the field reduced by integer factor k using k×k
// box averaging. Dimensions must be divisible by k.
func (f *Field) Downsample(k int) *Field {
	if k <= 0 || f.W%k != 0 || f.H%k != 0 {
		panic(fmt.Sprintf("grid: Downsample factor %d does not divide %dx%d", k, f.W, f.H))
	}
	out := NewField(f.W/k, f.H/k)
	inv := 1 / float64(k*k)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			var s float64
			for dy := 0; dy < k; dy++ {
				row := f.Row(y*k + dy)
				for dx := 0; dx < k; dx++ {
					s += row[x*k+dx]
				}
			}
			out.Set(x, y, s*inv)
		}
	}
	return out
}

// Equal reports whether f and g have the same shape and every element
// differs by at most tol.
func (f *Field) Equal(g *Field, tol float64) bool {
	if !f.SameShape(g) {
		return false
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-g.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String summarises the field for debugging.
func (f *Field) String() string {
	min, max := f.MinMax()
	return fmt.Sprintf("Field(%dx%d, min=%g, max=%g)", f.W, f.H, min, max)
}
