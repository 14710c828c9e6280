package pixelilt

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
// `at` is emitted; the step completes and the driver observes the
// cancellation at the next boundary.
type cancelAtSink struct {
	at     int
	cancel context.CancelFunc
}

func (s *cancelAtSink) Emit(e obs.Event) {
	if e.Type == obs.EventIteration && e.Iter == s.at {
		s.cancel()
	}
}

func cancelBaselineRun(t *testing.T, sim *litho.Simulator, target *grid.Field, opts Options, at int) *solve.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.SetSink(&cancelAtSink{at: at, cancel: cancel}, "")
	defer sim.SetSink(nil, "")
	_, err := Optimize(ctx, sim, target, opts, nil)
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("cancelled run returned %v, want *solve.Cancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	return cerr.Checkpoint
}

func expectBaselineIdentical(t *testing.T, res, ref *solve.Outcome) {
	t.Helper()
	if res.Iterations != ref.Iterations || res.Evals != ref.Evals {
		t.Fatalf("resumed run: %d iters / %d corner sims, reference %d/%d",
			res.Iterations, res.Evals, ref.Iterations, ref.Evals)
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
		t.Fatal("resumed θ differs from the uninterrupted run")
	}
	if !res.Mask.Equal(ref.Mask, 0) {
		t.Fatal("resumed binary mask differs from the uninterrupted run")
	}
}

func TestBaselineCancelResumeBitIdentical(t *testing.T) {
	sim := newTestSim(t, 3)
	target := rectTarget(64, 28, 12)
	opts := DefaultOptions(MosaicExact)
	opts.MaxIter = 10

	ref, err := Optimize(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	cp := cancelBaselineRun(t, sim, target, opts, 3)
	if cp.Factor != 1 || cp.Iter != 4 {
		t.Fatalf("checkpoint at factor %d iter %d, want 1/4", cp.Factor, cp.Iter)
	}
	if cp.Method != MosaicExact.String() {
		t.Fatalf("checkpoint method %q, want %q", cp.Method, MosaicExact.String())
	}

	res, err := Optimize(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectBaselineIdentical(t, res, ref)
}

func TestBaselineCancelResumeMultiRes(t *testing.T) {
	sim := newTestSim(t, 3)
	target := rectTarget(64, 28, 12)
	opts := DefaultOptions(PVOPC)
	opts.MaxIter = 8
	opts.MultiResFactor = 4 // levels: 16px ×2, 32px ×2, 64px ×4

	ref, err := Optimize(context.Background(), sim, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Global iteration 5 is the second full-resolution step (offset 4).
	cp := cancelBaselineRun(t, sim, target, opts, 5)
	if cp.Factor != 1 || cp.Iter != 2 || cp.Offset != 4 {
		t.Fatalf("checkpoint at factor %d iter %d offset %d, want 1/2/4", cp.Factor, cp.Iter, cp.Offset)
	}
	if len(cp.Done) != 4 {
		t.Fatalf("checkpoint carries %d done iterations, want 4", len(cp.Done))
	}

	res, err := Optimize(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectBaselineIdentical(t, res, ref)
}

func TestBaselineResumeRejectsForeignCheckpoint(t *testing.T) {
	sim := newTestSim(t, 3)
	target := rectTarget(64, 28, 12)
	opts := DefaultOptions(MosaicExact)
	opts.MaxIter = 8

	cp := cancelBaselineRun(t, sim, target, opts, 2)

	other := opts
	other.Variant = PVOPC
	if _, err := Optimize(context.Background(), sim, target, other, cp); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("checkpoint of a different variant: %v, want ErrCheckpointMismatch", err)
	}
	bad := *cp
	bad.Factor = 2
	if _, err := Optimize(context.Background(), sim, target, opts, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("coarse-level checkpoint on a single-resolution run: %v, want ErrCheckpointMismatch", err)
	}
	bad = *cp
	bad.State = map[string]*grid.Field{"theta": grid.NewField(32, 32)}
	if _, err := Optimize(context.Background(), sim, target, opts, &bad); !errors.Is(err, solve.ErrCheckpointMismatch) {
		t.Fatalf("32-px checkpoint on a 64-px run: %v, want ErrCheckpointMismatch", err)
	}
	bad = *cp
	bad.State = map[string]*grid.Field{}
	if _, err := Optimize(context.Background(), sim, target, opts, &bad); err == nil {
		t.Fatal("checkpoint without θ accepted")
	}
	// θ with the run's W×H but only 10 of its values.
	bad.State = map[string]*grid.Field{}
	for k, f := range cp.State {
		bad.State[k] = f
	}
	theta := cp.State["theta"]
	bad.State["theta"] = &grid.Field{W: theta.W, H: theta.H, Data: theta.Data[:10]}
	if _, err := Optimize(context.Background(), sim, target, opts, &bad); err == nil {
		t.Fatal("checkpoint with a short θ accepted")
	}
}
