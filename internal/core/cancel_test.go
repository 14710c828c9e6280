package core

import (
	"context"
	"errors"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/solve"
)

// cancelAtSink cancels a context when the iteration event numbered
// `at` is emitted — the deterministic stand-in for a user's Ctrl-C:
// the step that emits the event completes, and the driver observes the
// cancellation at the next iteration boundary.
type cancelAtSink struct {
	at     int
	cancel context.CancelFunc
}

func (s *cancelAtSink) Emit(e obs.Event) {
	if e.Type == obs.EventIteration && e.Iter == s.at {
		s.cancel()
	}
}

// cancelRun runs the (possibly multi-resolution) optimization and
// cancels it deterministically after global iteration `at` completes,
// returning the captured checkpoint.
func cancelRun(t *testing.T, sim *litho.Simulator, target *grid.Field, opts Options, at int) *solve.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.SetSink(&cancelAtSink{at: at, cancel: cancel}, "")
	defer sim.SetSink(nil, "")
	_, err := Run(ctx, sim, target, opts, nil)
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("cancelled run returned %v, want *solve.Cancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	return cerr.Checkpoint
}

// expectIdentical asserts a resumed run reproduced the uninterrupted
// reference bit for bit: same history row by row, same final ψ and
// mask.
func expectIdentical(t *testing.T, res, ref *solve.Outcome) {
	t.Helper()
	if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
		t.Fatalf("resumed run: %d iters converged=%v, reference %d/%v",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
	if len(res.History) != len(ref.History) {
		t.Fatalf("resumed history %d rows, reference %d", len(res.History), len(ref.History))
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] diverged after resume:\n  resumed   %+v\n  reference %+v",
				i, res.History[i], ref.History[i])
		}
	}
	if !res.State.Equal(ref.State, 0) {
		t.Fatal("resumed ψ differs from the uninterrupted run")
	}
	if !res.Mask.Equal(ref.Mask, 0) {
		t.Fatal("resumed mask differs from the uninterrupted run")
	}
}

func TestCancelMonolithicResumeBitIdentical(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10

	ref, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	cp := cancelRun(t, sim, target, opts, 3)
	if cp.Factor != 1 || cp.Iter != 4 {
		t.Fatalf("checkpoint at factor %d iter %d, want 1/4", cp.Factor, cp.Iter)
	}
	if len(cp.History) != 4 {
		t.Fatalf("checkpoint history %d rows, want 4", len(cp.History))
	}

	res, err := Run(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

// TestCancelResumeWithIterOffset: a run whose iteration axis starts at
// IterOffset (as a tiling stitch pass's does) cancels and resumes like a
// fresh one, its checkpoint names the global iteration of the
// cancellation, and Iterations still excludes the offset.
func TestCancelResumeWithIterOffset(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10
	opts.IterOffset = 20

	ref, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations != 10 || ref.History[0].Iter != 20 {
		t.Fatalf("offset run: %d iterations from global %d, want 10 from 20", ref.Iterations, ref.History[0].Iter)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := &obs.CollectorSink{}
	sim.SetSink(obs.TeeSink{&cancelAtSink{at: 23, cancel: cancel}, events}, "")
	_, err = Run(ctx, sim, target, opts, nil)
	sim.SetSink(nil, "")
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("cancelled run returned %v, want *solve.Cancelled", err)
	}
	cp := cerr.Checkpoint
	cancelledAt := -1
	for _, e := range events.Events() {
		if e.Type == obs.EventCancelled {
			cancelledAt = e.Iter
		}
	}
	if cancelledAt != 24 || cp.Offset+cp.Iter != cancelledAt {
		t.Fatalf("checkpoint at %d+%d, cancelled event at %d, want both at global 24", cp.Offset, cp.Iter, cancelledAt)
	}

	res, err := Run(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestCancelMultiResBetweenLevels(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.Tolerance = 0      // use the full budget: keeps the level offsets pinned
	opts.MultiResFactor = 4 // levels: 64/4 ×2, 64/2 ×2, full ×4

	ref, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Global iteration 1 is the coarsest level's last step, so the
	// cancellation lands on the boundary *between* levels: the hand-off
	// has happened and the factor-2 level is checkpointed untouched.
	cp := cancelRun(t, sim, target, opts, 1)
	if cp.Factor != 2 || cp.Iter != 0 {
		t.Fatalf("checkpoint at factor %d iter %d, want 2/0", cp.Factor, cp.Iter)
	}
	if cp.Offset != 2 || len(cp.Done) != 2 {
		t.Fatalf("checkpoint at offset %d with %d done rows, want 2", cp.Offset, len(cp.Done))
	}

	res, err := Run(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestCancelMultiResInsideFineLevel(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 8
	opts.Tolerance = 0 // use the full budget: keeps the level offsets pinned
	opts.MultiResFactor = 4

	ref, err := Run(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Global iteration 5 is the second step of the full-resolution level
	// (offset 4): the checkpoint must land inside that level.
	cp := cancelRun(t, sim, target, opts, 5)
	if cp.Factor != 1 || cp.Iter != 2 || cp.Offset != 4 {
		t.Fatalf("checkpoint at factor %d iter %d offset %d, want 1/2/4", cp.Factor, cp.Iter, cp.Offset)
	}

	res, err := Run(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10

	cp := cancelRun(t, sim, target, opts, 2)

	bad := *cp
	bad.Method = "something-else"
	if _, err := Run(context.Background(), sim, target, opts, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("foreign-method checkpoint: %v, want ErrCheckpointMismatch", err)
	}
	bad = *cp
	bad.Factor = 2
	if _, err := Run(context.Background(), sim, target, opts, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("coarse-level checkpoint on a single-resolution run: %v, want ErrCheckpointMismatch", err)
	}
	// ψ of another grid size fails both typed checks.
	bad = *cp
	bad.State = map[string]*grid.Field{"psi": grid.NewField(32, 32)}
	if _, err := Run(context.Background(), sim, target, opts, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) || !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("32-px checkpoint on a 64-px run: %v, want ErrCheckpointMismatch and ErrShapeMismatch", err)
	}
	// ψ with the run's W×H but only 10 of its 4096 values: CopyFrom
	// would copy the 10 and resume from a partly restored ψ.
	bad = *cp
	bad.State = map[string]*grid.Field{}
	for k, f := range cp.State {
		bad.State[k] = f
	}
	psi := cp.State["psi"]
	bad.State["psi"] = &grid.Field{W: psi.W, H: psi.H, Data: psi.Data[:10]}
	if _, err := Run(context.Background(), sim, target, opts, &bad); err == nil {
		t.Fatal("checkpoint with a short psi accepted")
	}
	shifted := opts
	shifted.IterOffset = 5 // the checkpoint's run started at 0
	if _, err := Run(context.Background(), sim, target, shifted, cp); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("checkpoint on a run with another IterOffset: %v, want ErrCheckpointMismatch", err)
	}
	multi := opts
	multi.MultiResFactor = 4
	bad = *cp
	bad.Factor = 8 // not a level of the factor-4 schedule
	if _, err := Run(context.Background(), sim, target, multi, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("checkpoint at a factor outside the schedule: %v, want ErrCheckpointMismatch", err)
	}
}

// FuzzResumeAtOffset resumes a cancelled coarse-to-fine run from a
// checkpoint whose Offset, Done rows, level factor and the resuming
// run's IterOffset are fuzzed. Whenever the checkpoint does not fit the
// run (its Offset is not IterOffset + len(Done), or its factor is not in
// the schedule), solve.RunLevels must refuse it with
// ErrCheckpointMismatch before any work, and nothing may panic. The grid
// is 32 px, so every input is cheap.
func FuzzResumeAtOffset(f *testing.F) {
	f.Add(uint8(0), int64(2), uint8(2), uint8(1))     // the checkpoint's own position: fits
	f.Add(uint8(0), int64(3), uint8(2), uint8(1))     // one past it
	f.Add(uint8(20), int64(2), uint8(2), uint8(1))    // the resuming run starts at 20
	f.Add(uint8(0), int64(-1), uint8(0), uint8(1))    // a negative offset
	f.Add(uint8(5), int64(1<<62), uint8(9), uint8(1)) // far off, more Done rows than the run has
	f.Add(uint8(0), int64(2), uint8(2), uint8(3))     // a factor the schedule lacks

	cfg := litho.DefaultConfig(32, 32)
	cfg.Optics.Kernels = 2
	sim, err := litho.NewSimulator(cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	target := grid.NewField(32, 32)
	for y := 12; y < 20; y++ {
		for x := 8; x < 24; x++ {
			target.Set(x, y, 1)
		}
	}
	opts := DefaultOptions()
	opts.MaxIter = 4
	opts.Tolerance = 0
	opts.MultiResFactor = 2 // levels: 16 px ×2, full ×2
	ctx, cancel := context.WithCancel(context.Background())
	sim.SetSink(&cancelAtSink{at: 2, cancel: cancel}, "")
	_, err = Run(ctx, sim, target, opts, nil)
	sim.SetSink(nil, "")
	cancel()
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		f.Fatalf("cancelled run returned %v, want *solve.Cancelled", err)
	}
	base := cerr.Checkpoint

	f.Fuzz(func(t *testing.T, iterOffset uint8, offset int64, done, factor uint8) {
		cp := *base
		cp.Offset = int(offset)
		cp.Factor = int(factor % 5)
		cp.Done = nil
		for i := 0; i < int(done%16); i++ {
			cp.Done = append(cp.Done, solve.IterStats{Iter: i, Cost: 1})
		}
		o := opts
		o.IterOffset = int(iterOffset)
		fits := cp.Offset == o.IterOffset+len(cp.Done) && (cp.Factor == 1 || cp.Factor == 2)
		if fits {
			return // a resumable position: TestCancelResume* hold those runs
		}
		_, err := Run(context.Background(), sim, target, o, &cp)
		if !errors.Is(err, solve.ErrCheckpointMismatch) {
			t.Fatalf("offset %d, %d done rows, factor %d, IterOffset %d: %v, want ErrCheckpointMismatch",
				cp.Offset, len(cp.Done), cp.Factor, o.IterOffset, err)
		}
	})
}
