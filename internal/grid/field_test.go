package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFieldZeroed(t *testing.T) {
	f := NewField(4, 3)
	if f.W != 4 || f.H != 3 || len(f.Data) != 12 {
		t.Fatalf("unexpected shape: %v", f)
	}
	for i, v := range f.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %g", i, v)
		}
	}
}

func TestNewFieldPanicsOnBadSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewField(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewField(dims[0], dims[1])
		}()
	}
}

func TestAtSetRowMajor(t *testing.T) {
	f := NewField(3, 2)
	f.Set(2, 1, 7)
	if f.At(2, 1) != 7 {
		t.Fatalf("At(2,1) = %g, want 7", f.At(2, 1))
	}
	if f.Data[1*3+2] != 7 {
		t.Fatalf("row-major layout violated: %v", f.Data)
	}
}

func TestRowAliases(t *testing.T) {
	f := NewField(4, 4)
	r := f.Row(2)
	r[1] = 9
	if f.At(1, 2) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestArithmetic(t *testing.T) {
	a := FieldFromData(2, 2, []float64{1, 2, 3, 4})
	b := FieldFromData(2, 2, []float64{10, 20, 30, 40})
	c := NewField(2, 2)

	c.Add(a, b)
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Add[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
	c.Sub(b, a)
	want = []float64{9, 18, 27, 36}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Sub[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
	c.Mul(a, b)
	want = []float64{10, 40, 90, 160}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Mul[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
	c.Scale(a, 3)
	want = []float64{3, 6, 9, 12}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Scale[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
	c.AddScaled(a, 2) // c = 3a + 2a = 5a
	want = []float64{5, 10, 15, 20}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("AddScaled[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
}

func TestArithmeticAliasingSafe(t *testing.T) {
	a := FieldFromData(2, 2, []float64{1, 2, 3, 4})
	a.Add(a, a)
	want := []float64{2, 4, 6, 8}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("self Add[%d] = %g, want %g", i, a.Data[i], want[i])
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewField(2, 2)
	b := NewField(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	a.Add(a, b)
}

func TestNorms(t *testing.T) {
	f := FieldFromData(2, 2, []float64{3, 4, 0, 0})
	if got := f.Norm2(); got != 25 {
		t.Fatalf("Norm2 = %g, want 25", got)
	}
	if got := f.Norm(); got != 5 {
		t.Fatalf("Norm = %g, want 5", got)
	}
	if got := f.Sum(); got != 7 {
		t.Fatalf("Sum = %g, want 7", got)
	}
	if got := f.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
	g := FieldFromData(2, 2, []float64{1, 1, 1, 1})
	if got := f.Dot(g); got != 7 {
		t.Fatalf("Dot = %g, want 7", got)
	}
}

func TestMinMax(t *testing.T) {
	f := FieldFromData(3, 1, []float64{-2, 5, 1})
	min, max := f.MinMax()
	if min != -2 || max != 5 {
		t.Fatalf("MinMax = (%g,%g), want (-2,5)", min, max)
	}
}

func TestThresholdAndSigmoid(t *testing.T) {
	a := FieldFromData(3, 1, []float64{0.1, 0.225, 0.9})
	r := NewField(3, 1)
	r.Threshold(a, 0.225)
	if r.Data[0] != 0 || r.Data[1] != 1 || r.Data[2] != 1 {
		t.Fatalf("Threshold = %v", r.Data)
	}

	// Sigmoid must be 0.5 exactly at the threshold and approach the
	// step function as steepness grows.
	r.Sigmoid(a, 50, 0.225)
	if math.Abs(r.Data[1]-0.5) > 1e-12 {
		t.Fatalf("sigmoid at threshold = %g, want 0.5", r.Data[1])
	}
	if r.Data[0] > 0.01 || r.Data[2] < 0.99 {
		t.Fatalf("steep sigmoid should saturate: %v", r.Data)
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	prop := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		in := FieldFromData(2, 1, []float64{lo, hi})
		out := NewField(2, 1)
		out.Sigmoid(in, 25, 0.225)
		return out.Data[0] <= out.Data[1] &&
			out.Data[0] >= 0 && out.Data[1] <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestXORCount(t *testing.T) {
	a := FieldFromData(4, 1, []float64{1, 0, 1, 0})
	b := FieldFromData(4, 1, []float64{1, 1, 0, 0})
	if got := a.XORCount(b); got != 2 {
		t.Fatalf("XORCount = %d, want 2", got)
	}
	if got := a.XORCount(a); got != 0 {
		t.Fatalf("self XORCount = %d, want 0", got)
	}
}

func TestCountAbove(t *testing.T) {
	f := FieldFromData(4, 1, []float64{0, 0.5, 0.6, 1})
	if got := f.CountAbove(0.5); got != 2 {
		t.Fatalf("CountAbove = %d, want 2", got)
	}
}

func TestSubRegionCopiesWindow(t *testing.T) {
	f := NewField(8, 8)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	sub := f.SubRegion(2, 3, 4, 2)
	if sub.W != 4 || sub.H != 2 {
		t.Fatalf("SubRegion shape %dx%d", sub.W, sub.H)
	}
	if sub.At(0, 0) != f.At(2, 3) || sub.At(3, 1) != f.At(5, 4) {
		t.Fatal("SubRegion copied wrong data")
	}
	sub.Set(0, 0, -1)
	if f.At(2, 3) == -1 {
		t.Fatal("SubRegion must copy, not alias")
	}
}

func TestSubRegionOutOfBoundsPanics(t *testing.T) {
	f := NewField(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds SubRegion did not panic")
		}
	}()
	f.SubRegion(2, 2, 4, 4)
}

func TestDownsampleBoxAverage(t *testing.T) {
	f := FieldFromData(4, 2, []float64{
		1, 3, 5, 7,
		1, 3, 5, 7,
	})
	d := f.Downsample(2)
	if d.W != 2 || d.H != 1 {
		t.Fatalf("Downsample shape %dx%d", d.W, d.H)
	}
	if d.At(0, 0) != 2 || d.At(1, 0) != 6 {
		t.Fatalf("Downsample values %v", d.Data)
	}
}

func TestDownsamplePreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewField(16, 16)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	d := f.Downsample(4)
	meanF := f.Sum() / float64(len(f.Data))
	meanD := d.Sum() / float64(len(d.Data))
	if math.Abs(meanF-meanD) > 1e-12 {
		t.Fatalf("box downsample changed mean: %g vs %g", meanF, meanD)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := NewField(2, 2)
	g := f.Clone()
	g.Data[0] = 5
	if f.Data[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FieldFromData(2, 1, []float64{1, 2})
	b := FieldFromData(2, 1, []float64{1.0005, 2})
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal should accept within tolerance")
	}
	if a.Equal(b, 1e-6) {
		t.Fatal("Equal should reject beyond tolerance")
	}
	c := NewField(1, 2)
	if a.Equal(c, 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func TestFieldFromDataPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FieldFromData with wrong length did not panic")
		}
	}()
	FieldFromData(2, 2, []float64{1, 2, 3})
}

func TestFillZeroCopyFrom(t *testing.T) {
	f := NewField(2, 2)
	f.Fill(3)
	if f.Sum() != 12 {
		t.Fatalf("Fill: sum = %g", f.Sum())
	}
	g := NewField(2, 2)
	g.CopyFrom(f)
	if g.Sum() != 12 {
		t.Fatal("CopyFrom failed")
	}
	f.Zero()
	if f.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if g.Sum() != 12 {
		t.Fatal("CopyFrom must deep-copy")
	}
}

// Property: Dot is bilinear and Norm2 = Dot(self).
func TestDotProperties(t *testing.T) {
	prop := func(vals [6]float64, s float64) bool {
		if math.Abs(s) > 1e6 {
			s = math.Mod(s, 1e6)
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				vals[i] = math.Mod(v, 1e3)
				if math.IsNaN(vals[i]) {
					vals[i] = 1
				}
			}
		}
		a := FieldFromData(3, 1, vals[:3])
		b := FieldFromData(3, 1, vals[3:])
		c := NewField(3, 1)
		c.Scale(b, s)
		lhs := a.Dot(c)
		rhs := s * a.Dot(b)
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(rhs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummaries(t *testing.T) {
	f := FieldFromData(2, 1, []float64{-1, 2})
	if got := f.String(); got != "Field(2x1, min=-1, max=2)" {
		t.Fatalf("Field.String = %q", got)
	}
	c := NewCField(2, 1)
	if got := c.String(); got == "" {
		t.Fatal("CField.String empty")
	}
}

func TestNewFieldLike(t *testing.T) {
	f := NewField(3, 5)
	g := NewFieldLike(f)
	if g.W != 3 || g.H != 5 || g.Sum() != 0 {
		t.Fatalf("NewFieldLike shape %dx%d", g.W, g.H)
	}
}
