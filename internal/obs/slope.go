package obs

import "math"

// SlopeAccum incrementally computes the least-squares slope of ln(cost)
// against the sample index — the convergence-rate statistic of Fold —
// one Observe per iteration, O(1) memory. Non-positive or non-finite
// costs are skipped but still advance the index, so feeding a series
// point by point yields the batch least-squares slope over the whole
// series.
//
// The zero value is ready to use. Not concurrency-safe; callers (Fold)
// serialize access.
type SlopeAccum struct {
	i                        int // next sample index, advances on skips too
	n                        float64
	sumX, sumY, sumXX, sumXY float64
}

// Observe appends one cost sample.
func (a *SlopeAccum) Observe(cost float64) {
	i := a.i
	a.i++
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return
	}
	x, y := float64(i), math.Log(cost)
	a.n++
	a.sumX += x
	a.sumY += y
	a.sumXX += x * x
	a.sumXY += x * y
}

// Slope returns the current least-squares slope (ln-cost per
// iteration), or 0 with fewer than two usable samples.
func (a *SlopeAccum) Slope() float64 {
	if a.n < 2 {
		return 0
	}
	den := a.n*a.sumXX - a.sumX*a.sumX
	if den == 0 {
		return 0
	}
	return (a.n*a.sumXY - a.sumX*a.sumY) / den
}
