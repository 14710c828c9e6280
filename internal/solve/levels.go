package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
)

// LevelConfig describes one resolution level of a schedule to
// Program.Level.
type LevelConfig struct {
	// MaxIter is the level's iteration budget.
	MaxIter int
	// Offset is the global iteration number of the level's first step.
	Offset int
	// State is the previous level's upsampled hand-off (ψ or θ), nil on
	// the first level run (including a level being resumed from a
	// checkpoint, whose state arrives via Driver.Restore instead).
	State *grid.Field
	// Coarse marks every level except the final full-resolution one;
	// methods disable final-mask-only bookkeeping (keep-best,
	// snapshots) on coarse levels.
	Coarse bool
}

// Program adapts a method (core, pixelilt) to the multi-resolution
// runner: it builds one Driver per level and owns the state
// interpolation between levels.
type Program interface {
	// Level builds the driver for one level. cleanup releases the
	// level's scratch and is always called after the level ends,
	// success or not; the level's Outcome owns its fields and outlives
	// it.
	Level(sim *litho.Simulator, target *grid.Field, cfg LevelConfig) (drv *Driver, cleanup func(), err error)
	// Upsample lifts the evolving state onto a 2× finer grid (the
	// method decides whether to redistance afterwards).
	Upsample(state *grid.Field) *grid.Field
	// TraceName tags level_switch events ("" omits the field).
	TraceName() string
}

// RunLevels executes a coarse-to-fine schedule over the program:
// Algorithm 1 on a downsampled grid first, halving the factor each
// level, finishing at full resolution on sim itself. A one-level
// schedule (Plan with factor ≤ 1) is a plain run on sim. Coarse
// sessions are created on exactly-truncated kernel banks (sharing sim's
// resource pool), inherit sim's trace sink and id, and are released
// before the next level starts; histories concatenate with globally
// renumbered iterations and each hand-off emits a level_switch trace
// event to sim's sink.
//
// offset seeds the global iteration numbering; Outcome.Iterations
// counts the iterations run from there, a resumed checkpoint's
// included. A non-nil resume checkpoint fast-forwards the schedule to
// the checkpointed level and restores its driver at the checkpoint's
// Offset, continuing bit-identically. On cancellation the returned
// *Cancelled checkpoint is annotated with the schedule position
// (factor, completed levels' history) so resume can rebuild the whole
// run. A checkpoint whose level or position does not fit the schedule
// fails with ErrCheckpointMismatch.
func RunLevels(ctx context.Context, sim *litho.Simulator, target *grid.Field, sched Schedule, prog Program, offset int, resume *Checkpoint) (*Outcome, error) {
	if n := sim.GridSize(); target.W != n || target.H != n {
		return nil, fmt.Errorf("%w: target %dx%d, grid %d", ErrShapeMismatch, target.W, target.H, n)
	}
	total := &Outcome{}
	globalIter := offset
	start := 0
	if resume != nil {
		start = -1
		for li, f := range sched.Factors {
			if f == resume.Factor {
				start = li
				break
			}
		}
		if start < 0 {
			return nil, fmt.Errorf("%w: level factor %d is not in the schedule %v", ErrCheckpointMismatch, resume.Factor, sched.Factors)
		}
		// Every completed level left one history row per iteration, so
		// the level's offset is the run's offset plus those rows.
		if resume.Offset != offset+len(resume.Done) {
			return nil, fmt.Errorf("%w: iteration offset %d, the run's %d after %d completed iterations", ErrCheckpointMismatch, resume.Offset, offset, len(resume.Done))
		}
		total.History = append(total.History, resume.Done...)
		total.Evals = resume.DoneEvals
		globalIter = resume.Offset
	}

	var state *grid.Field // hand-off, already at the next level's resolution
	for li := start; li < len(sched.Factors); li++ {
		f := sched.Factors[li]
		var from *Checkpoint
		if li == start {
			from = resume
		}
		out, err := runOneLevel(ctx, sim, target, f, prog, LevelConfig{
			MaxIter: sched.Iters[li],
			Offset:  globalIter,
			State:   state,
			Coarse:  f > 1,
		}, from)
		if err != nil {
			// Annotate the level checkpoint with the schedule position
			// so resume can rebuild the surrounding levels.
			var c *Cancelled
			if errors.As(err, &c) {
				c.Checkpoint.Factor = f
				c.Checkpoint.Done = append([]IterStats(nil), total.History...)
				c.Checkpoint.DoneEvals = total.Evals
			}
			return nil, err
		}
		if out.AbortCheckpoint != nil {
			// Same schedule-position annotation for watchdog aborts, so
			// the postmortem checkpoint resumes through RunLevels too.
			out.AbortCheckpoint.Factor = f
			out.AbortCheckpoint.Done = append([]IterStats(nil), total.History...)
			out.AbortCheckpoint.DoneEvals = total.Evals
		}

		total.History = append(total.History, out.History...)
		globalIter += out.Iterations
		total.Iterations = globalIter - offset
		total.Evals += out.Evals

		if f == 1 {
			// Final full-resolution level: the outcome is the run's.
			total.Converged = out.Converged
			total.Aborted = out.Aborted
			total.AbortReason = out.AbortReason
			total.AbortCheckpoint = out.AbortCheckpoint
			total.Snapshots = out.Snapshots
			total.State = out.State
			return total, nil
		}
		if out.Aborted {
			// A poisoned coarse run must not feed the next level.
			// Surface the abort with the state lifted to full resolution
			// so the result shape matches the caller's grid.
			total.Aborted = true
			total.AbortReason = out.AbortReason
			total.AbortCheckpoint = out.AbortCheckpoint
			st := out.State
			for lift := f; lift > 1; lift /= 2 {
				st = prog.Upsample(st)
			}
			total.State = st
			return total, nil
		}

		// Hand-off: interpolate onto the next level's grid.
		interpStart := time.Now()
		state = prog.Upsample(out.State)
		if sink, trace := sim.TraceSink(); sink != nil {
			sink.Emit(obs.Event{
				Type:   obs.EventLevelSwitch,
				Trace:  trace,
				Name:   prog.TraceName(),
				Engine: sim.Engine().Name(),
				Iter:   globalIter,
				OldN:   out.State.W,
				N:      state.W,
				DurNS:  time.Since(interpStart).Nanoseconds(),
			})
		}
	}
	return total, nil
}

// runOneLevel runs the schedule level of factor f: it builds the level's
// simulator (a coarse session on sim's truncated banks when f > 1) and
// target, the program's driver, restores from when it is non-nil and
// runs the driver. On every path the level's cleanup runs first, then
// the coarse session is released.
func runOneLevel(ctx context.Context, sim *litho.Simulator, target *grid.Field, f int, prog Program, cfg LevelConfig, from *Checkpoint) (*Outcome, error) {
	lsim, ltarget := sim, target
	if f > 1 {
		cres, err := sim.Resources().Coarse(f)
		if err != nil {
			return nil, err
		}
		ccfg := sim.Config()
		ccfg.Optics = cres.Optics()
		csim, err := litho.NewSession(cres, ccfg, sim.Engine())
		if err != nil {
			return nil, err
		}
		defer csim.Release()
		csim.SetSink(sim.TraceSink())
		lsim = csim
		// The coarse target is the box-averaged design re-binarised at
		// half coverage — the same pattern at the coarse pitch.
		ltarget = target.Downsample(f)
		ltarget.Binarize(ltarget)
	}
	drv, cleanup, err := prog.Level(lsim, ltarget, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if from != nil {
		if err := drv.Restore(from); err != nil {
			return nil, err
		}
	}
	// The `level` pprof label (the level's grid edge) composes with the
	// run_id/phase labels Driver.Run applies, so CPU profiles of a
	// coarse-to-fine run slice per level.
	var out *Outcome
	pprof.Do(ctx, pprof.Labels("level", strconv.Itoa(lsim.GridSize())), func(ctx context.Context) {
		out, err = drv.Run(ctx)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
