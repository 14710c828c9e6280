package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCFieldBasics(t *testing.T) {
	c := NewCField(3, 2)
	c.Set(2, 1, 1+2i)
	if c.At(2, 1) != 1+2i {
		t.Fatalf("At = %v", c.At(2, 1))
	}
	if c.Data[5] != 1+2i {
		t.Fatal("row-major layout violated")
	}
	r := c.Row(1)
	r[0] = 3i
	if c.At(0, 1) != 3i {
		t.Fatal("Row must alias storage")
	}
}

func TestCFieldSetRealRealRoundTrip(t *testing.T) {
	f := FieldFromData(2, 2, []float64{1, -2, 3, 0.5})
	c := NewCField(2, 2)
	c.SetReal(f)
	g := NewField(2, 2)
	c.Real(g)
	if !f.Equal(g, 0) {
		t.Fatalf("SetReal/Real round trip failed: %v vs %v", f.Data, g.Data)
	}
	for _, v := range c.Data {
		if imag(v) != 0 {
			t.Fatal("SetReal must zero imaginary parts")
		}
	}
}

func TestCFieldMulAndConj(t *testing.T) {
	a := NewCField(2, 1)
	b := NewCField(2, 1)
	a.Data[0], a.Data[1] = 1+1i, 2
	b.Data[0], b.Data[1] = 3i, 1-1i

	c := NewCField(2, 1)
	c.Mul(a, b)
	if c.Data[0] != (1+1i)*3i || c.Data[1] != 2*(1-1i) {
		t.Fatalf("Mul = %v", c.Data)
	}
	c.Conj(a)
	if c.Data[0] != 1-1i {
		t.Fatalf("Conj = %v", c.Data)
	}
}

func TestCFieldAddScale(t *testing.T) {
	a := NewCField(2, 1)
	a.Data[0], a.Data[1] = 1, 2i
	b := NewCField(2, 1)
	b.Data[0], b.Data[1] = 1i, 1

	c := NewCField(2, 1)
	c.Add(a, b)
	if c.Data[0] != 1+1i || c.Data[1] != 1+2i {
		t.Fatalf("Add = %v", c.Data)
	}
	c.Scale(a, 2i)
	if c.Data[0] != 2i || c.Data[1] != -4 {
		t.Fatalf("Scale = %v", c.Data)
	}
	c.AddScaled(b, 1) // c += b
	if c.Data[0] != 3i || c.Data[1] != -3 {
		t.Fatalf("AddScaled = %v", c.Data)
	}
}

func TestAbsSqAndAccum(t *testing.T) {
	c := NewCField(2, 1)
	c.Data[0], c.Data[1] = 3+4i, 1i
	f := NewField(2, 1)
	c.AbsSqInto(f)
	if f.Data[0] != 25 || f.Data[1] != 1 {
		t.Fatalf("AbsSqInto = %v", f.Data)
	}
	c.AccumAbsSq(f, 2) // f += 2|c|²
	if f.Data[0] != 75 || f.Data[1] != 3 {
		t.Fatalf("AccumAbsSq = %v", f.Data)
	}
	if got := c.Norm2(); got != 26 {
		t.Fatalf("Norm2 = %g, want 26", got)
	}
	if got := c.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %g, want 5", got)
	}
}

func TestFlipInto(t *testing.T) {
	a := NewCField(4, 4)
	for i := range a.Data {
		a.Data[i] = complex(float64(i), 0)
	}
	b := NewCField(4, 4)
	b.FlipInto(a)
	// Flip fixes the origin and maps (x,y) -> (-x mod W, -y mod H).
	if b.At(0, 0) != a.At(0, 0) {
		t.Fatal("flip must fix origin")
	}
	if b.At(1, 0) != a.At(3, 0) || b.At(0, 1) != a.At(0, 3) || b.At(2, 3) != a.At(2, 1) {
		t.Fatal("flip mapping wrong")
	}
	// Double flip is the identity.
	c := NewCField(4, 4)
	c.FlipInto(b)
	if !c.Equal(a, 0) {
		t.Fatal("double flip must be identity")
	}
}

func TestFlipIntoRejectsAliasing(t *testing.T) {
	a := NewCField(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("FlipInto(self) did not panic")
		}
	}()
	a.FlipInto(a)
}

func TestCFieldEqual(t *testing.T) {
	a := NewCField(2, 1)
	b := NewCField(2, 1)
	a.Data[0] = 1
	b.Data[0] = 1 + 1e-9i
	if !a.Equal(b, 1e-6) {
		t.Fatal("Equal should accept tiny difference")
	}
	if a.Equal(b, 1e-12) {
		t.Fatal("Equal should reject difference above tol")
	}
}

func TestPow2Helpers(t *testing.T) {
	for _, tc := range []struct {
		n  int
		is bool
	}{
		{1, true}, {2, true}, {3, false}, {4, true},
		{5, false}, {1023, false}, {1024, true},
	} {
		if got := IsPow2(tc.n); got != tc.is {
			t.Errorf("IsPow2(%d) = %v", tc.n, got)
		}
	}
	if IsPow2(0) || IsPow2(-4) {
		t.Error("IsPow2 must reject non-positive values")
	}
}

// Property: flip preserves energy.
func TestFlipPreservesEnergy(t *testing.T) {
	prop := func(vals [8]float64) bool {
		a := NewCField(2, 2)
		for i := 0; i < 4; i++ {
			re, im := vals[2*i], vals[2*i+1]
			if math.IsNaN(re) || math.IsInf(re, 0) {
				re = 0
			}
			if math.IsNaN(im) || math.IsInf(im, 0) {
				im = 0
			}
			a.Data[i] = complex(math.Mod(re, 1e3), math.Mod(im, 1e3))
		}
		b := NewCField(2, 2)
		b.FlipInto(a)
		return math.Abs(a.Norm2()-b.Norm2()) <= 1e-9*(1+a.Norm2())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
