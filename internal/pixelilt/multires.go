package pixelilt

import (
	"context"
	"fmt"
	"math"

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

// runSchedule drives solve.RunLevels over the baseline program and
// assembles this package's Result from the merged outcome.
func runSchedule(ctx context.Context, sim *litho.Simulator, target *grid.Field, opts Options, resume *solve.Checkpoint) (*Result, error) {
	if n := sim.GridSize(); target.W != n || target.H != n {
		return nil, fmt.Errorf("pixelilt: target %dx%d does not match grid %d", target.W, target.H, n)
	}
	prog := &levelProgram{opts: opts}
	sched := solve.Plan(opts.MaxIter, opts.MultiResFactor, opts.MultiResIters)
	out, err := solve.RunLevels(ctx, sim, target, sched, prog, opts.IterOffset, resume)
	if err != nil {
		return nil, err
	}
	total := &Result{
		Iterations:      out.Iterations,
		Aborted:         out.Aborted,
		AbortReason:     out.AbortReason,
		AbortCheckpoint: out.AbortCheckpoint,
		History:         historyFromSolve(out.History),
		CornerSims:      out.Evals,
	}
	if prog.res != nil {
		// The full-resolution level ran: its assembly (binarisation,
		// manufacturability cleanup) is the run's mask pair.
		total.Mask = prog.res.Mask
		total.Gray = prog.res.Gray
	} else {
		// A poisoned coarse run aborted the schedule: θ arrives lifted to
		// full resolution so the result masks match the caller's grid.
		total.Gray, total.Mask = masksFromTheta(out.State, opts.MaskSteepness)
	}
	return total, nil
}

// levelProgram adapts the pixel baselines to solve.RunLevels.
type levelProgram struct {
	opts Options
	res  *Result // full-resolution level's assembled result
}

// Level builds the stepper and driver for one resolution level.
func (p *levelProgram) Level(sim *litho.Simulator, target *grid.Field, cfg solve.LevelConfig) (*solve.Driver, func(*solve.Outcome), func(), error) {
	lopts := p.opts
	lopts.MaxIter = cfg.MaxIter
	lopts.IterOffset = cfg.Offset
	if cfg.Coarse {
		lopts.CleanupTinyPx = 0 // manufacturability cleanup is final-mask-only
	}
	s, err := newStepper(sim, target, lopts, cfg.State)
	if err != nil {
		return nil, nil, nil, err
	}
	finish := func(out *solve.Outcome) {
		if !cfg.Coarse {
			p.res = s.finish(out)
		}
	}
	return s.driver(), finish, s.release, nil
}

// Upsample lifts θ onto the 2× finer grid by spectral interpolation —
// no redistancing: θ is a sigmoid input, not a signed distance.
func (p *levelProgram) Upsample(theta *grid.Field) *grid.Field {
	return levelset.UpsampleSpectral(theta, 2)
}

// TraceName tags level_switch events with the variant name.
func (p *levelProgram) TraceName() string { return p.opts.Variant.String() }

// masksFromTheta builds the continuous and binarised masks of θ.
func masksFromTheta(theta *grid.Field, a float64) (gray, bin *grid.Field) {
	gray = grid.NewField(theta.W, theta.H)
	for j, v := range theta.Data {
		gray.Data[j] = 1 / (1 + math.Exp(-a*v))
	}
	bin = grid.NewField(theta.W, theta.H)
	bin.Binarize(gray)
	return gray, bin
}
