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
// interpolated spectrally (levelset.UpsampleSpectral) and redistanced
// with the fast-marching method, so the contour arrives at the next
// level with its sub-pixel position intact and a clean signed-distance
// profile around it.
//
// The schedule itself — budget split, coarse sessions, hand-offs,
// level_switch events, checkpoint/resume — is solve.RunLevels; this
// file only adapts the level-set method to its Program contract.
package core

import (
	"context"
	"fmt"

	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/solve"
)

// Run executes Algorithm 1 on sim for the target image and is the
// package's one run entry point. With MultiResFactor > 1 it follows the
// coarse-to-fine schedule: Algorithm 1 on a MultiResFactor-downsampled
// grid first, halving the factor each level, finishing at full
// resolution on sim itself.
//
// Budget: each coarse level runs MultiResIters iterations (default
// MaxIter/2 split evenly across the coarse levels); full resolution
// gets the remainder of MaxIter (see solve.Plan). Histories are
// concatenated with globally renumbered iterations, and each resolution
// hand-off emits a typed level_switch trace event carrying the grid
// transition and the interpolation + redistancing time.
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
func Run(ctx context.Context, sim *litho.Simulator, target *grid.Field, opts Options, from *solve.Checkpoint) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MultiResFactor > 1 {
		if err := checkShape(sim, target); err != nil {
			return nil, err
		}
		return runSchedule(ctx, sim, target, opts, from)
	}
	if from != nil && from.Factor != 1 {
		return nil, fmt.Errorf("%w: resolution factor %d, but the run is single-resolution", solve.ErrCheckpointMismatch, from.Factor)
	}
	o, err := New(sim, target, opts)
	if err != nil {
		return nil, err
	}
	defer o.Release()
	return o.run(ctx, from)
}

// checkShape validates the target against the simulator grid.
func checkShape(sim *litho.Simulator, target *grid.Field) error {
	if n := sim.GridSize(); target.W != n || target.H != n {
		return fmt.Errorf("%w: target %dx%d, grid %d", ErrShapeMismatch, target.W, target.H, n)
	}
	return nil
}

// runSchedule drives solve.RunLevels over the level-set program and
// assembles this package's Result from the merged outcome.
func runSchedule(ctx context.Context, sim *litho.Simulator, target *grid.Field, opts Options, resume *solve.Checkpoint) (*Result, error) {
	prog := &levelProgram{opts: opts}
	sched := solve.Plan(opts.MaxIter, opts.MultiResFactor, opts.MultiResIters)
	out, err := solve.RunLevels(ctx, sim, target, sched, prog, opts.IterOffset, resume)
	if err != nil {
		return nil, err
	}
	total := &Result{
		Iterations:      out.Iterations,
		Converged:       out.Converged,
		Aborted:         out.Aborted,
		AbortReason:     out.AbortReason,
		AbortCheckpoint: out.AbortCheckpoint,
		History:         historyFromSolve(out.History),
		Snapshots:       snapshotsFromSolve(out.Snapshots),
	}
	if prog.res != nil {
		// The full-resolution level ran: its assembly (keep-best
		// selection, manufacturability cleanup) is the run's mask.
		total.Mask = prog.res.Mask
		total.Psi = prog.res.Psi
	} else {
		// A poisoned coarse run aborted the schedule: the state arrives
		// lifted to full resolution so the result shape matches the
		// caller's grid.
		total.Psi = out.State
		total.Mask = grid.NewField(total.Psi.W, total.Psi.H)
		levelset.MaskFromPsi(total.Mask, total.Psi)
	}
	return total, nil
}

// levelProgram adapts the level-set optimizer to solve.RunLevels.
type levelProgram struct {
	opts Options
	res  *Result // full-resolution level's assembled result
}

// Level builds the optimizer and driver for one resolution level.
func (p *levelProgram) Level(sim *litho.Simulator, target *grid.Field, cfg solve.LevelConfig) (*solve.Driver, func(*solve.Outcome), func(), error) {
	lopts := p.opts
	lopts.MaxIter = cfg.MaxIter
	lopts.IterOffset = cfg.Offset
	if cfg.Coarse || cfg.State != nil {
		lopts.InitialPsi = cfg.State
		lopts.InitialMask = nil
	}
	if cfg.Coarse {
		// Hand the *last* ψ to the next level, not the best iterate:
		// the schedule wants continuity of the evolving contour, and the
		// best-so-far bookkeeping restarts at full resolution anyway.
		lopts.KeepBest = false
		lopts.SnapshotEvery = 0 // snapshots mix grid sizes; full-res only
		lopts.CleanupTinyPx = 0 // manufacturability cleanup is final-mask-only
	}
	o, err := New(sim, target, lopts)
	if err != nil {
		return nil, nil, nil, err
	}
	drv, err := o.driver()
	if err != nil {
		o.Release()
		return nil, nil, nil, err
	}
	finish := func(out *solve.Outcome) {
		if !cfg.Coarse {
			p.res = o.finish(out)
		}
	}
	return drv, finish, o.Release, nil
}

// Upsample is the hand-off: spectral interpolation onto the 2× finer
// grid, then FMM redistancing so the next level starts from a signed
// distance function at its own pixel pitch.
func (p *levelProgram) Upsample(psi *grid.Field) *grid.Field {
	return levelset.ReinitializeFMM(levelset.UpsampleSpectral(psi, 2))
}

// TraceName is empty: level-set level_switch events carry no name.
func (p *levelProgram) TraceName() string { return "" }
