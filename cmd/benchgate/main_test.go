package main

import "testing"

// The bounds are written out as numbers here, not read from the
// constants, so loosening either bound or the strict-greater rule
// fails these tests.

func TestVerdictIdenticalPasses(t *testing.T) {
	for _, bound := range []float64{multiresBound, tiledBound} {
		if !verdict(20_000_000, 20_000_000, bound) {
			t.Fatalf("identical timings fail under bound %g", bound)
		}
	}
}

func TestVerdictAtBoundPasses(t *testing.T) {
	cases := []struct {
		bound         float64
		atBound, past int64
	}{
		{multiresBound, 1_100_000, 1_100_001},
		{tiledBound, 1_670_000, 1_670_001},
	}
	for _, c := range cases {
		if !verdict(1_000_000, c.atBound, c.bound) {
			t.Errorf("variant at exactly base×(1+%g) = %d ns fails; equality must pass", c.bound, c.atBound)
		}
		if verdict(1_000_000, c.past, c.bound) {
			t.Errorf("variant %d ns past base×(1+%g) passes", c.past, c.bound)
		}
	}
}

func TestVerdictInflatedMultiresFails(t *testing.T) {
	const base = 20_000_000
	if verdict(base, base*125/100, multiresBound) {
		t.Fatal("a 1.25× slower coarse-to-fine run passes the multires gate")
	}
}

func TestVerdictPastTiledBoundFails(t *testing.T) {
	const base = 450_000_000
	if verdict(base, base*168/100, tiledBound) {
		t.Fatal("a tiled run 1.68× the monolithic one passes the tiled gate")
	}
}
