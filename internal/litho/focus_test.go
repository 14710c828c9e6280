package litho

import (
	"testing"

	"lsopc/internal/grid"
)

// TestAerialAtFocusMatchesCorners pins the unit-dose focus aerial to the
// corner path on every execution path: at best focus it is Aerial(Nominal)
// bit for bit, at the inner corner's defocus it is Aerial(Inner) before
// the dose scale.
func TestAerialAtFocusMatchesCorners(t *testing.T) {
	for _, p := range groupPaths {
		n := p.n
		mask := randomMask(n, 11)
		s := groupSim(t, p)
		spec := grid.NewCField(n, n)
		s.MaskSpectrumInto(spec, mask)
		got := grid.NewField(n, n)
		ref := grid.NewField(n, n)

		if err := s.AerialAtFocus(got, spec, 0); err != nil {
			t.Fatal(err)
		}
		s.Aerial(ref, spec, Nominal)
		fieldsEqual(t, p.name+" best focus", got, ref)

		if err := s.AerialAtFocus(got, spec, s.Config().DefocusNM); err != nil {
			t.Fatal(err)
		}
		got.Scale(got, s.Dose(Inner))
		s.Aerial(ref, spec, Inner)
		fieldsEqual(t, p.name+" inner defocus", got, ref)
	}
}

// TestFocusBank: the session's own banks serve best focus and the inner
// corner's defocus; any other focus comes from the shared memoized cache.
func TestFocusBank(t *testing.T) {
	s := testSim(t, 2)
	for _, tc := range []struct {
		focus float64
		want  Condition
	}{{0, Nominal}, {s.Config().DefocusNM, Inner}} {
		b, err := s.focusBank(tc.focus)
		if err != nil {
			t.Fatal(err)
		}
		if b != s.Bank(tc.want) {
			t.Fatalf("focusBank(%g) is not the %v bank", tc.focus, tc.want)
		}
	}
	a, err := s.focusBank(10)
	if err != nil {
		t.Fatal(err)
	}
	sib := testSim(t, 2)
	b, err := sib.focusBank(10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.DefocusNM != 10 || a == s.Bank(Nominal) || a == s.Bank(Inner) {
		t.Fatalf("focusBank(10) = %p (defocus %g), second session %p", a, a.DefocusNM, b)
	}
}

func TestAerialAtFocusZeroAllocWarm(t *testing.T) {
	for _, g := range warmGrids {
		for _, w := range allocWorkers {
			s, spec, imgs, _ := warmSimAt(t, g, 4, w)
			defocus := s.Config().DefocusNM
			if avg := testing.AllocsPerRun(20, func() {
				_ = s.AerialAtFocus(imgs.Aerial, spec, 0)
				_ = s.AerialAtFocus(imgs.Aerial, spec, defocus)
			}); avg != 0 {
				t.Fatalf("%d px, %d workers: warm AerialAtFocus allocates %.1f objects/op, want 0", g.n, w, avg)
			}
		}
	}
}
