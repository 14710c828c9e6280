package pixelilt

import (
	"math"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/solve"
)

// The baselines share the level-set method's coarse-to-fine machinery
// (solve.RunLevels): θ evolves on a MultiResFactor-downsampled grid
// first (the SOCS banks truncate exactly to the coarse configuration,
// see optics.Bank.Coarse), is interpolated spectrally onto each finer
// grid — without redistancing, θ is a sigmoid input, not a distance
// function — and finishes at full resolution on sim itself. Histories
// concatenate with globally renumbered iterations; each hand-off emits
// a level_switch trace event named after the variant.

// levelProgram adapts the pixel baselines to solve.RunLevels.
type levelProgram struct {
	opts Options
	eng  *engine.Engine // the run's engine, which the hand-off runs on
}

// Level builds the stepper and driver for one resolution level.
func (p *levelProgram) Level(sim *litho.Simulator, target *grid.Field, cfg solve.LevelConfig) (*solve.Driver, func(), error) {
	lopts := p.opts
	lopts.MaxIter = cfg.MaxIter
	s := newStepper(sim, target, lopts, cfg.Offset, cfg.State)
	return s.driver(), s.release, nil
}

// Upsample lifts θ onto the 2× finer grid by spectral interpolation on
// the run's engine — no redistancing: θ is a sigmoid input, not a
// signed distance.
func (p *levelProgram) Upsample(theta *grid.Field) *grid.Field {
	return levelset.UpsampleSpectral(theta, 2, p.eng)
}

// TraceName tags level_switch events with the variant name.
func (p *levelProgram) TraceName() string { return p.opts.Variant.String() }

// maskFromTheta builds the binarised mask of θ: σ(a·θ) thresholded
// at one half.
func maskFromTheta(theta *grid.Field) *grid.Field {
	const a = maskSteepness
	m := grid.NewField(theta.W, theta.H)
	for j, v := range theta.Data {
		m.Data[j] = 1 / (1 + math.Exp(-a*v))
	}
	m.Binarize(m)
	return m
}
