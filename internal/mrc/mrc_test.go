package mrc

import (
	"testing"

	"lsopc/internal/grid"
)

// countKinds counts violations by kind.
func countKinds(violations []Violation) map[ViolationKind]int {
	out := make(map[ViolationKind]int)
	for _, v := range violations {
		out[v.Kind]++
	}
	return out
}

func rectMask(n, x0, y0, x1, y1 int) *grid.Field {
	f := grid.NewField(n, n)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			f.Set(x, y, 1)
		}
	}
	return f
}

// rules4 is a 40 nm/40 nm/3600 nm² rule set at 4 nm pixels:
// 10 px width/space, 225 px area.
func rules4() Rules { return DefaultRules(4) }

func TestRulesValidate(t *testing.T) {
	if err := rules4().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Rules{PixelNM: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero pitch accepted")
	}
	neg := rules4()
	neg.MinWidthNM = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative rule accepted")
	}
}

func TestCleanMaskPasses(t *testing.T) {
	// 80 nm wide feature (20 px) with wide surroundings: no violations.
	m := rectMask(64, 20, 20, 40, 44)
	v, err := Check(m, rules4())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean mask flagged: %v", v)
	}
}

func TestWidthViolation(t *testing.T) {
	// 5-px (20 nm) wide vertical sliver: below the 40 nm width rule.
	m := rectMask(64, 30, 10, 35, 54)
	v, err := Check(m, rules4())
	if err != nil {
		t.Fatal(err)
	}
	s := countKinds(v)
	if s[WidthViolation] == 0 {
		t.Fatalf("thin feature not flagged: %v", v)
	}
	// The violation records the measured width.
	for _, viol := range v {
		if viol.Kind == WidthViolation && viol.Measured != 20 {
			t.Fatalf("measured width %g, want 20", viol.Measured)
		}
	}
}

func TestSpaceViolation(t *testing.T) {
	// Two wide features separated by a 4-px (16 nm) gap.
	m := rectMask(64, 10, 10, 30, 50)
	for y := 10; y < 50; y++ {
		for x := 34; x < 54; x++ {
			m.Set(x, y, 1)
		}
	}
	v, err := Check(m, rules4())
	if err != nil {
		t.Fatal(err)
	}
	if countKinds(v)[SpaceViolation] == 0 {
		t.Fatalf("narrow gap not flagged: %v", v)
	}
}

func TestSpaceRuleIgnoresBorderGaps(t *testing.T) {
	// A single feature near the grid edge: the gap to the border is not
	// a space violation (no neighbour on the other side).
	m := rectMask(64, 2, 20, 22, 44)
	v, err := Check(m, rules4())
	if err != nil {
		t.Fatal(err)
	}
	if countKinds(v)[SpaceViolation] != 0 {
		t.Fatalf("border gap flagged: %v", v)
	}
}

func TestAreaViolation(t *testing.T) {
	// 36×36 nm (9×9 px = 1296 nm²) island: below 3600 nm²... but also
	// below the width rule; isolate by widening rules.
	m := rectMask(64, 30, 30, 39, 39)
	r := rules4()
	r.MinWidthNM = 0
	r.MinSpaceNM = 0
	v, err := Check(m, r)
	if err != nil {
		t.Fatal(err)
	}
	s := countKinds(v)
	if s[AreaViolation] != 1 {
		t.Fatalf("small island not flagged: %v", v)
	}
}

func TestHoleViolation(t *testing.T) {
	m := rectMask(64, 10, 10, 54, 54)
	// A 3×3 px (144 nm²) pinhole.
	for y := 30; y < 33; y++ {
		for x := 30; x < 33; x++ {
			m.Set(x, y, 0)
		}
	}
	r := rules4()
	r.MinWidthNM = 0
	r.MinSpaceNM = 0
	v, err := Check(m, r)
	if err != nil {
		t.Fatal(err)
	}
	if countKinds(v)[HoleViolation] != 1 {
		t.Fatalf("pinhole not flagged: %v", v)
	}
	// The outer background must not be a hole violation.
	empty := rectMask(64, 28, 28, 36, 36)
	v, err = Check(empty, r)
	if err != nil {
		t.Fatal(err)
	}
	if countKinds(v)[HoleViolation] != 0 {
		t.Fatalf("outer background flagged as hole: %v", v)
	}
}

func TestDisabledRules(t *testing.T) {
	m := rectMask(32, 14, 14, 16, 16) // tiny sliver island
	v, err := Check(m, Rules{PixelNM: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("disabled rules still flagged: %v", v)
	}
}

func TestCheckRejectsInvalidRules(t *testing.T) {
	if _, err := Check(grid.NewField(8, 8), Rules{}); err == nil {
		t.Fatal("invalid rules accepted")
	}
}

func TestViolationFormatting(t *testing.T) {
	v := Violation{Kind: WidthViolation, X: 3, Y: 4, Measured: 20, Limit: 40}
	if v.String() != "width violation at (3,4): 20 < 40" {
		t.Fatalf("formatting %q", v.String())
	}
	kinds := []ViolationKind{WidthViolation, SpaceViolation, AreaViolation, HoleViolation}
	names := []string{"width", "space", "area", "hole"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("kind %d name %q", i, k.String())
		}
	}
	if ViolationKind(9).String() != "ViolationKind(9)" {
		t.Error("unknown kind formatting")
	}
}

func TestExactLimitPasses(t *testing.T) {
	// Exactly 40 nm (10 px) wide: meets the rule, no violation.
	m := rectMask(64, 20, 10, 30, 54)
	v, err := Check(m, rules4())
	if err != nil {
		t.Fatal(err)
	}
	if countKinds(v)[WidthViolation] != 0 {
		t.Fatalf("exact-limit width flagged: %v", v)
	}
}
