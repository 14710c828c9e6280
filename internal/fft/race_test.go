package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// TestCachedPlanConcurrent hammers the shared plan cache from many
// goroutines over overlapping sizes, including first-time creation, and
// checks every caller sees one canonical plan per size. Run under
// `go test -race` (make race) this doubles as the regression test for
// the cache's locking.
func TestCachedPlanConcurrent(t *testing.T) {
	// Larger power-of-two sizes that the small-grid tests in this
	// process are unlikely to have cached, so first-time creation races
	// are actually exercised.
	sizes := []int{512, 1024, 2048, 4096}
	const workers = 16
	got := make([][]*Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plans := make([]*Plan, 0, len(sizes)*8)
			for rep := 0; rep < 8; rep++ {
				for _, n := range sizes {
					plans = append(plans, CachedPlan(n))
				}
			}
			got[w] = plans
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i, p := range got[w] {
			if p != got[0][i] {
				t.Fatalf("worker %d saw a different plan for call %d", w, i)
			}
		}
	}
}

// TestConcurrentPlan2DConstructionAndUse builds independent 2-D batch
// plans on the shared cached 1-D plans from many goroutines, each on a
// two-worker engine, and round-trips data through each (the complex
// passes and the real-input forward), verifying the shared plans are
// read-only during transforms.
func TestConcurrentPlan2DConstructionAndUse(t *testing.T) {
	const n = 32
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := NewBatchPlan2DFromPlans(CachedPlan(n), CachedPlan(n), engine.New("pair", 2), nil)
			f := grid.NewCField(n, n)
			r := grid.NewField(n, n)
			for i := range f.Data {
				f.Data[i] = complex(float64((i*7+w)%13), float64(i%5))
				r.Data[i] = real(f.Data[i])
			}
			want := append([]complex128(nil), f.Data...)
			p.BatchForward([]*grid.CField{f})
			p.BatchInverse([]*grid.CField{f})
			for i := range f.Data {
				if cmplx.Abs(f.Data[i]-want[i]) > 1e-9*math.Max(1, cmplx.Abs(want[i])) {
					errs[w] = &roundTripError{worker: w, index: i}
					return
				}
			}
			p.ForwardReal(f, r, -1)
			p.InverseRealBanded(r, f, -1)
			for i, v := range r.Data {
				if math.Abs(v-real(want[i])) > 1e-9*math.Max(1, math.Abs(real(want[i]))) {
					errs[w] = &roundTripError{worker: w, index: i}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type roundTripError struct{ worker, index int }

func (e *roundTripError) Error() string {
	return "fft: concurrent round trip diverged"
}
