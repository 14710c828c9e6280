package solve

import (
	"reflect"
	"testing"
)

// TestPlanSchedules pins the coarse-to-fine budget split — including the
// degenerate clamps — for the one scheduler core and pixelilt now share.
func TestPlanSchedules(t *testing.T) {
	cases := []struct {
		name            string
		maxIter, factor int
		factors, iters  []int
		totalOverBudget bool
	}{
		{"single level", 10, 1, []int{1}, []int{10}, false},
		{"factor zero degenerates", 10, 0, []int{1}, []int{10}, false},
		{"default split factor 2", 100, 2, []int{2, 1}, []int{50, 50}, false},
		{"default split factor 4", 100, 4, []int{4, 2, 1}, []int{25, 25, 50}, false},
		{"budget below level count", 2, 8, []int{8, 4, 2, 1}, []int{1, 1, 1, 1}, true},
		{"budget one", 1, 2, []int{2, 1}, []int{1, 1}, true},
		{"tiny default per-coarse clamps", 3, 4, []int{4, 2, 1}, []int{1, 1, 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Plan(tc.maxIter, tc.factor)
			if !reflect.DeepEqual(s.Factors, tc.factors) || !reflect.DeepEqual(s.Iters, tc.iters) {
				t.Fatalf("Plan(%d, %d) = %v/%v, want %v/%v",
					tc.maxIter, tc.factor, s.Factors, s.Iters, tc.factors, tc.iters)
			}
			// The scheduled total exceeds the budget only when the
			// clamps padded levels to one iteration each.
			total := 0
			for _, n := range s.Iters {
				total += n
			}
			if over := total > tc.maxIter; over != tc.totalOverBudget {
				t.Fatalf("total %d vs budget %d: overrun %v, want %v", total, tc.maxIter, over, tc.totalOverBudget)
			}
			// Invariants every schedule keeps: ends at full resolution,
			// halving factors, every level gets at least one iteration.
			if s.Factors[len(s.Factors)-1] != 1 {
				t.Fatalf("schedule %v does not end at full resolution", s.Factors)
			}
			for i, n := range s.Iters {
				if n < 1 {
					t.Fatalf("level %d scheduled %d iterations", i, n)
				}
			}
			for i := 1; i < len(s.Factors); i++ {
				if prev := s.Factors[i-1]; s.Factors[i] != prev/2 && !(s.Factors[i] == 1 && prev == 2) {
					t.Fatalf("factors %v do not halve", s.Factors)
				}
			}
		})
	}
}
