package solve

// Schedule is a resolved multi-resolution iteration plan: one entry per
// level, coarsest first, always ending at full resolution (factor 1).
type Schedule struct {
	Factors []int // grid downsample factor per level
	Iters   []int // iteration budget per level
}

// Plan splits an iteration budget across the coarse-to-fine schedule —
// the arithmetic core and pixelilt used to duplicate. With factor ≤ 1
// it degenerates to a single full-resolution level holding the whole
// budget. Otherwise each coarse level (factor, factor/2, …, 2) runs an
// even share of maxIter/2 and full resolution gets the remainder. Every level
// is clamped to at least one iteration, so a budget smaller than the
// level count still visits every resolution (and then overruns maxIter
// by the padding).
func Plan(maxIter, factor int) Schedule {
	if factor <= 1 {
		return Schedule{Factors: []int{1}, Iters: []int{maxIter}}
	}
	numCoarse := 0
	for f := factor; f > 1; f /= 2 {
		numCoarse++
	}
	perCoarse := maxIter / (2 * numCoarse)
	if perCoarse < 1 {
		perCoarse = 1
	}
	fine := maxIter - numCoarse*perCoarse
	if fine < 1 {
		fine = 1
	}
	s := Schedule{
		Factors: make([]int, 0, numCoarse+1),
		Iters:   make([]int, 0, numCoarse+1),
	}
	for f := factor; f > 1; f /= 2 {
		s.Factors = append(s.Factors, f)
		s.Iters = append(s.Iters, perCoarse)
	}
	s.Factors = append(s.Factors, 1)
	s.Iters = append(s.Iters, fine)
	return s
}
