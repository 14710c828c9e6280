// Coarse-to-fine evolution: the schedule behind Options.MultiResFactor.
//
// The level-set contour's large-scale motion — pulling edges onto the
// target, growing assist lobes — happens in the first iterations, where
// per-pixel detail contributes nothing but cost. Running those
// iterations on a 2×/4×-downsampled grid makes each of them ~factor²
// cheaper: the SOCS kernel banks truncate exactly to the coarse
// configuration (the spectral bin width 1/(GridSize·PixelNM) is
// invariant under the (N/k, pitch·k) exchange, see optics.Bank.Coarse),
// so the coarse forward model is the genuine physical model at coarser
// sampling, not an approximation of the fine one. Between levels ψ is
// interpolated spectrally (levelset.UpsampleSpectral) and then given
// fast-sweeping (sub-pixel) redistancing, so the contour arrives at the
// next level with its sub-pixel position intact and a clean
// signed-distance profile around it.
//
// The schedule itself — budget split, coarse sessions, hand-offs,
// level_switch events, checkpoint/resume — is solve.RunLevels; this
// file adapts the level-set method to its Program contract, and Run
// sends every run through it, a single-resolution one as a one-level
// schedule.
package core

import (
	"context"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/solve"
)

// Run executes Algorithm 1 on sim for the target image and is the
// package's one run entry point. Every run is a solve.RunLevels
// schedule from solve.Plan: a single full-resolution level when
// MultiResFactor ≤ 1, else Algorithm 1 on a MultiResFactor-downsampled
// grid first, halving the factor each level, finishing at full
// resolution on sim itself.
//
// Budget: the coarse levels share MaxIter/2 evenly and full resolution
// gets the remainder (see solve.Plan). Histories are concatenated with
// globally renumbered iterations, and each resolution hand-off emits a
// typed level_switch trace event carrying the grid transition and the
// interpolation + redistancing time.
//
// The simulator passed in stays caller-owned; coarse sessions are
// created on truncated kernel banks (sharing sim's resource pool) and
// released before the function returns. Cancellation yields a
// *solve.Cancelled error carrying a checkpoint. Passing that checkpoint
// as from (nil starts a fresh run) with the original run's options
// continues it, and the result matches the uninterrupted run
// bit-for-bit (snapshots excepted — they restart at the resume point).
// A checkpoint that does not fit the run fails with an error wrapping
// solve.ErrCheckpointMismatch.
//
// The outcome's State is the returned ψ: the keep-best iterate, or the
// last one after a coarse-level abort; Mask is its binary mask M*
// (Eq. 6). History holds one record per iteration: Cost is the total
// cost (Eq. 13), CostNominal ‖R_nom − R*‖² (Eq. 7) and CostPVB
// ‖R_in − R*‖² + ‖R_out − R*‖² (Eq. 12). Snapshots are taken at full
// resolution only (Fig. 2). Evals is 0: the level-set method does not
// count corner evaluations.
func Run(ctx context.Context, sim *litho.Simulator, target *grid.Field, opts Options, from *solve.Checkpoint) (*solve.Outcome, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	prog := &levelProgram{opts: opts, eng: sim.Engine()}
	sched := solve.Plan(opts.MaxIter, opts.MultiResFactor)
	out, err := solve.RunLevels(ctx, sim, target, sched, prog, opts.IterOffset, from)
	if err != nil {
		return nil, err
	}
	out.Mask = grid.NewField(out.State.W, out.State.H)
	levelset.MaskFromPsi(out.Mask, out.State)
	return out, nil
}

// levelProgram adapts the level-set optimizer to solve.RunLevels.
type levelProgram struct {
	opts Options
	eng  *engine.Engine // the run's engine: every level's, and the hand-off's
}

// Level builds the optimizer and driver for one resolution level.
func (p *levelProgram) Level(sim *litho.Simulator, target *grid.Field, cfg solve.LevelConfig) (*solve.Driver, func(), error) {
	lopts := p.opts
	lopts.MaxIter = cfg.MaxIter
	lopts.IterOffset = cfg.Offset
	if cfg.Coarse || cfg.State != nil {
		lopts.InitialPsi = cfg.State
		lopts.InitialMask = nil
	}
	if cfg.Coarse {
		lopts.SnapshotEvery = 0 // snapshots mix grid sizes; full-res only
	}
	// A coarse level hands the *last* ψ to the next level, not the best
	// iterate: the schedule wants continuity of the evolving contour, and
	// the best-so-far bookkeeping restarts at full resolution anyway.
	o, err := newOptimizer(sim, target, lopts, !cfg.Coarse)
	if err != nil {
		return nil, nil, err
	}
	drv, err := o.driver()
	if err != nil {
		o.Release()
		return nil, nil, err
	}
	return drv, o.Release, nil
}

// Upsample is the hand-off: spectral interpolation onto the 2× finer
// grid on the run's engine, then fast-sweeping (sub-pixel)
// redistancing (levelset.ReinitializeFMM) so the next level starts from
// a signed distance function at its own pixel pitch.
func (p *levelProgram) Upsample(psi *grid.Field) *grid.Field {
	return levelset.ReinitializeFMM(levelset.UpsampleSpectral(psi, 2, p.eng))
}

// TraceName is empty: level-set level_switch events carry no name.
func (p *levelProgram) TraceName() string { return "" }
