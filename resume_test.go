package lsopc

import (
	"context"
	"errors"
	"maps"
	"math"
	"path/filepath"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/obs/recorder"
	"lsopc/internal/solve"
)

// cancelAtIter cancels the current run's context when the iteration
// event numbered at is emitted. The step that emits it completes, and
// the run stops at the next iteration boundary. It also counts the
// iteration events it sees.
type cancelAtIter struct {
	at     int
	cancel context.CancelFunc // nil between cancellable runs
	iters  int
}

func (s *cancelAtIter) Emit(e TraceEvent) {
	if e.Type != EventIteration {
		return
	}
	s.iters++
	if e.Iter == s.at && s.cancel != nil {
		s.cancel()
	}
}

// resumeCase is one method and schedule of the public cancel→resume
// test; each runs a budget of resumeIters iterations.
type resumeCase struct {
	name string
	at   int // global iteration whose event cancels the run
	run  func(ctx context.Context, p *Pipeline, from *Checkpoint) (*RunResult, error)
}

const resumeIters = 8

func resumeCases(l *Layout) []resumeCase {
	levelSet := func(factor int) func(context.Context, *Pipeline, *Checkpoint) (*RunResult, error) {
		opts := DefaultLevelSetOptions()
		opts.MaxIter = resumeIters
		opts.Tolerance = 0 // the full budget: the level offsets stay pinned
		opts.MultiResFactor = factor
		return func(ctx context.Context, p *Pipeline, from *Checkpoint) (*RunResult, error) {
			return p.OptimizeLevelSetContext(ctx, l, opts, from)
		}
	}
	mosaic := DefaultBaselineOptions(MosaicFast)
	mosaic.MaxIter = resumeIters
	return []resumeCase{
		{"levelset", 3, levelSet(1)},
		// Factor 2 gives the coarse level iterations 0–3: the checkpoint
		// is taken on the coarse grid.
		{"levelset-multires2", 2, levelSet(2)},
		{"MOSAIC_fast", 3, func(ctx context.Context, p *Pipeline, from *Checkpoint) (*RunResult, error) {
			return p.OptimizeBaselineContext(ctx, l, mosaic, from)
		}},
	}
}

// runsIdentical requires two runs to agree bit for bit: the mask, the
// report's deterministic fields and every history row at full
// precision.
func runsIdentical(t *testing.T, got, want *RunResult) {
	t.Helper()
	if got.Mask.W != want.Mask.W || got.Mask.H != want.Mask.H {
		t.Fatalf("mask %dx%d, want %dx%d", got.Mask.W, got.Mask.H, want.Mask.W, want.Mask.H)
	}
	for i, v := range want.Mask.Data {
		if math.Float64bits(got.Mask.Data[i]) != math.Float64bits(v) {
			t.Fatalf("mask differs at pixel %d: %v vs %v", i, got.Mask.Data[i], v)
		}
	}
	if !reportsMatch(got.Report, want.Report) {
		t.Fatalf("report %+v, want %+v", got.Report, want.Report)
	}
	hist := func(r *RunResult) []solve.IterStats {
		if r.LevelSet != nil {
			return r.LevelSet.History
		}
		return r.Baseline.History
	}
	ha, hb := hist(got), hist(want)
	if len(ha) != len(hb) {
		t.Fatalf("history has %d rows, want %d", len(ha), len(hb))
	}
	for i := range hb {
		if g, w := iterBits(ha[i]), iterBits(hb[i]); g != w {
			t.Fatalf("history row %d: %+v, want %+v", i, ha[i], hb[i])
		}
	}
}

// iterBits is a history row at full precision: every float by its bit
// pattern, so NaN and signed-zero costs compare exactly.
func iterBits(h solve.IterStats) [8]uint64 {
	return [8]uint64{
		uint64(h.Iter), math.Float64bits(h.Cost), math.Float64bits(h.CostNominal), math.Float64bits(h.CostPVB),
		math.Float64bits(h.MaxVelocity), math.Float64bits(h.TimeStep), math.Float64bits(h.LambdaPRP), uint64(h.Evals),
	}
}

// TestCancelResumeThroughPipeline is the public cancel→resume gate:
// each run is cancelled through its context at iteration k, resumed by
// passing CancelledError.Checkpoint back to the same entry point, and
// must then match the uninterrupted run bit for bit. The attached flight
// recorder must capture the cancellation exactly once, with the
// checkpoint.
func TestCancelResumeThroughPipeline(t *testing.T) {
	l := Benchmark("B4")
	ref, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()

	for _, tc := range resumeCases(l) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(context.Background(), ref, nil)
			if err != nil {
				t.Fatal(err)
			}

			captures := NewCollectorTraceSink()
			rec := NewFlightRecorder(FlightRecorderConfig{Dir: t.TempDir(), CPUProfile: -1, SnapshotEvery: -1, Sink: captures})
			defer rec.Close()
			stop := &cancelAtIter{at: tc.at}
			p, err := NewPipeline(PresetTest, GPUEngine(),
				WithTraceSink(TeeTraceSink(stop, rec)), WithFlightRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Release()

			ctx, cancel := context.WithCancel(context.Background())
			stop.cancel = cancel
			_, err = tc.run(ctx, p, nil)
			stop.cancel = nil
			cancel()
			var cerr *CancelledError
			if !errors.As(err, &cerr) || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want a *CancelledError unwrapping to context.Canceled", err)
			}
			cp := cerr.Checkpoint
			if got := cp.Offset + cp.Iter; got != tc.at+1 {
				t.Fatalf("checkpoint after %d iterations, want %d", got, tc.at+1)
			}

			froms := []*Checkpoint{cp}
			if best := cp.State["bestpsi"]; best != nil {
				// A keep-best checkpoint holds ψ, the CG memory and the
				// keep-best ψ. Older ones also carry "bestmask", the mask
				// of the keep-best ψ, which a resume ignores.
				if len(cp.State) != 4 {
					t.Fatalf("keep-best checkpoint holds %d fields, want 4", len(cp.State))
				}
				legacy := *cp
				legacy.State = maps.Clone(cp.State)
				legacy.State["bestmask"] = grid.NewFieldLike(best)
				levelset.MaskFromPsi(legacy.State["bestmask"], best)
				froms = append(froms, &legacy)
			}
			for _, from := range froms {
				stop.iters = 0
				got, err := tc.run(context.Background(), p, from)
				if err != nil {
					t.Fatal(err)
				}
				runsIdentical(t, got, want)
				// A run that ignored the checkpoint would match as well,
				// but would step through the whole budget again.
				if stop.iters != resumeIters-(tc.at+1) {
					t.Fatalf("resumed run stepped %d iterations, want the remaining %d", stop.iters, resumeIters-(tc.at+1))
				}
			}

			var bundles []TraceEvent
			for _, e := range captures.Events() {
				if e.Type == EventCapture {
					bundles = append(bundles, e)
				}
			}
			if len(bundles) != 1 || bundles[0].Msg != "cancelled" {
				t.Fatalf("capture events %+v, want exactly one for the cancellation", bundles)
			}
			saved, err := LoadCheckpoint(filepath.Join(bundles[0].Name, recorder.CheckpointFile))
			if err != nil {
				t.Fatal(err)
			}
			if saved.Method != cp.Method || saved.Factor != cp.Factor || saved.Iter != cp.Iter || saved.Offset != cp.Offset {
				t.Fatalf("bundle checkpoint %s f%d at %d+%d, cancelled at %s f%d %d+%d",
					saved.Method, saved.Factor, saved.Offset, saved.Iter, cp.Method, cp.Factor, cp.Offset, cp.Iter)
			}
		})
	}
}

// TestCheckpointMismatchIsTyped: a checkpoint that does not fit the run
// fails through the public entry points with an error wrapping
// ErrCheckpointMismatch — one of another method, one of another preset's
// grid, and one of a coarse level handed to a single-resolution run.
func TestCheckpointMismatchIsTyped(t *testing.T) {
	l := Benchmark("B4")
	p, err := NewPipeline(PresetTest, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	cps := map[string]*Checkpoint{}
	for _, tc := range resumeCases(l) {
		ctx, cancel := context.WithCancel(context.Background())
		stop := &cancelAtIter{at: tc.at, cancel: cancel}
		q, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(stop))
		if err != nil {
			t.Fatal(err)
		}
		_, err = tc.run(ctx, q, nil)
		cancel()
		q.Release()
		var cerr *CancelledError
		if !errors.As(err, &cerr) {
			t.Fatalf("%s: cancelled run returned %v", tc.name, err)
		}
		cps[tc.name] = cerr.Checkpoint
	}

	opts := DefaultLevelSetOptions()
	opts.MaxIter = 8
	opts.Tolerance = 0
	if _, err := p.OptimizeLevelSetContext(context.Background(), l, opts, cps["MOSAIC_fast"]); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("baseline checkpoint on a level-set run: %v, want ErrCheckpointMismatch", err)
	}
	if _, err := p.OptimizeLevelSetContext(context.Background(), l, opts, cps["levelset-multires2"]); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("coarse-level checkpoint on a single-resolution run: %v, want ErrCheckpointMismatch", err)
	}
	fast, err := NewPipeline(PresetFast, GPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Release()
	if _, err := fast.OptimizeLevelSetContext(context.Background(), l, opts, cps["levelset"]); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("PresetTest checkpoint on a PresetFast pipeline: %v, want ErrCheckpointMismatch", err)
	}
}
