package solve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// quadStepper is a deterministic scalar Stepper: the state x minimizes
// cost(x) = x² by gradient descent, x ← x − dt·2x with dt = 0.1·scale.
// It records every driver callback so tests can pin the exact call
// sequence and step-scale trajectory, and it can cancel its own context
// at a chosen iteration to exercise the boundary logic.
type quadStepper struct {
	x     *grid.Field // Data[0] is the scalar state
	best  *grid.Field
	grad  float64
	cost  float64 // overridden by script when set
	calls []string
	xs    []float64 // state each Eval saw

	script   []float64 // optional per-iteration cost override
	scales   []float64 // scale passed to each StepSize call
	cancelAt int       // local iteration whose Eval cancels…
	cancel   context.CancelFunc
}

func newQuadStepper(x0 float64) *quadStepper {
	f := grid.NewField(2, 2)
	f.Data[0] = x0
	return &quadStepper{x: f, cancelAt: -1}
}

func (s *quadStepper) Eval(i int) Stats {
	s.calls = append(s.calls, fmt.Sprintf("eval:%d", i))
	if s.cancel != nil && i == s.cancelAt {
		s.cancel()
	}
	x := s.x.Data[0]
	s.xs = append(s.xs, x)
	s.grad = 2 * x
	s.cost = x * x
	if i < len(s.script) {
		s.cost = s.script[i]
	}
	return Stats{Cost: s.cost, CostNominal: s.cost, Name: "quad", Detailed: true}
}

func (s *quadStepper) SaveBest() {
	s.calls = append(s.calls, "savebest")
	s.best = s.x.Clone()
}

func (s *quadStepper) StepSize(scale float64) (dt, maxV float64) {
	s.scales = append(s.scales, scale)
	return 0.1 * scale, math.Abs(s.grad)
}

func (s *quadStepper) GradNorm() float64 { return math.Abs(s.grad) }

func (s *quadStepper) Advance(i int, dt float64) float64 {
	s.x.Data[0] -= dt * s.grad
	return dt
}

func (s *quadStepper) Snapshot() *grid.Field { return s.x.Clone() }

func (s *quadStepper) State(best bool) *grid.Field {
	if best {
		return s.best.Clone()
	}
	return s.x.Clone()
}

func (s *quadStepper) SaveState() map[string]*grid.Field {
	st := map[string]*grid.Field{"x": s.x.Clone()}
	if s.best != nil {
		st["best"] = s.best.Clone()
	}
	return st
}

func (s *quadStepper) RestoreState(st map[string]*grid.Field) error {
	f, ok := st["x"]
	if !ok {
		return errors.New("quad: checkpoint missing field x")
	}
	s.x.CopyFrom(f)
	if b := st["best"]; b != nil {
		s.best = b.Clone()
	}
	return nil
}

func quadConfig(maxIter int) Config {
	return Config{Method: "quad", MaxIter: maxIter, BaseScale: 1}
}

func TestDriverConvergesOnTolerance(t *testing.T) {
	s := newQuadStepper(1)
	cfg := quadConfig(500)
	cfg.Tolerance = 1e-6
	out, err := NewDriver(s, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("run did not converge in %d iterations (final x=%g)", out.Iterations, s.x.Data[0])
	}
	if out.Iterations >= 500 || out.Iterations != len(out.History) {
		t.Fatalf("iterations %d, history %d", out.Iterations, len(out.History))
	}
	if got := out.State.Data[0]; math.Abs(got) > 1e-6 {
		t.Fatalf("final state %g, want ~0", got)
	}
}

func TestDriverAdaptiveScaleTrajectory(t *testing.T) {
	s := newQuadStepper(1)
	// Scripted costs force the exact shrink/recover pattern: i0 never
	// adapts, a rise halves, a fall recovers ×1.1 capped at BaseScale.
	s.script = []float64{10, 5, 7, 6, 100, 1}
	cfg := quadConfig(6)
	cfg.AdaptiveStep = true
	if _, err := NewDriver(s, cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0.5, 0.55, 0.275, 0.275 * 1.1}
	if len(s.scales) != len(want) {
		t.Fatalf("StepSize called %d times, want %d", len(s.scales), len(want))
	}
	for i, w := range want {
		if math.Abs(s.scales[i]-w) > 1e-12 {
			t.Fatalf("iteration %d ran at scale %g, want %g (full trajectory %v)", i, s.scales[i], w, s.scales)
		}
	}
}

func TestDriverAdaptiveScaleFloor(t *testing.T) {
	s := newQuadStepper(1)
	s.script = make([]float64, 12)
	for i := range s.script {
		s.script[i] = float64(i) // monotone rise: halve every iteration
	}
	cfg := quadConfig(12)
	cfg.AdaptiveStep = true
	if _, err := NewDriver(s, cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	floor := cfg.BaseScale / 16
	if got := s.scales[len(s.scales)-1]; got != floor {
		t.Fatalf("scale bottomed at %g, want floor %g", got, floor)
	}
}

func TestDriverKeepBest(t *testing.T) {
	s := newQuadStepper(1)
	s.script = []float64{5, 3, 4, 2, 6}
	cfg := quadConfig(5)
	cfg.KeepBest = true
	out, err := NewDriver(s, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	saves := 0
	for _, c := range s.calls {
		if c == "savebest" {
			saves++
		}
	}
	if saves != 3 { // costs 5, 3, 2 are successive minima
		t.Fatalf("SaveBest called %d times, want 3 (calls %v)", saves, s.calls)
	}
	// The result is the cost-2 iterate (local iteration 3), not the last.
	if got, want := out.State.Data[0], s.xs[3]; got != want || got == s.x.Data[0] {
		t.Fatalf("State = %g, want the cost-2 iterate %g (last %g)", got, want, s.x.Data[0])
	}

	// Off, the result is the last iterate.
	s = newQuadStepper(1)
	s.script = []float64{5, 3, 4, 2, 6}
	out, err = NewDriver(s, quadConfig(5)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.State.Data[0]; got != s.x.Data[0] {
		t.Fatalf("without KeepBest State = %g, want the last iterate %g", got, s.x.Data[0])
	}
}

func TestDriverHistoryOffsets(t *testing.T) {
	s := newQuadStepper(1)
	cfg := quadConfig(3)
	cfg.Offset = 40
	out, err := NewDriver(s, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range out.History {
		if h.Iter != 40+i {
			t.Fatalf("history[%d].Iter = %d, want %d", i, h.Iter, 40+i)
		}
	}
}

func TestDriverCancelledBeforeFirstStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newQuadStepper(1)
	_, err := NewDriver(s, quadConfig(10)).Run(ctx)
	var cerr *Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("Run returned %v, want *Cancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled error %v does not unwrap to context.Canceled", err)
	}
	if cerr.Checkpoint.Iter != 0 || len(cerr.Checkpoint.History) != 0 {
		t.Fatalf("pre-run checkpoint at iter %d with %d history rows, want 0/0",
			cerr.Checkpoint.Iter, len(cerr.Checkpoint.History))
	}
	if len(s.calls) != 0 {
		t.Fatalf("stepper was called despite pre-cancelled context: %v", s.calls)
	}
}

func TestDriverCancelMidRunEmitsEvents(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := newQuadStepper(1)
	s.cancelAt, s.cancel = 3, cancel
	sink := &obs.CollectorSink{}
	cfg := quadConfig(10)
	cfg.Sink = sink
	cfg.Trace = "t1"
	_, err := NewDriver(s, cfg).Run(ctx)
	var cerr *Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("Run returned %v, want *Cancelled", err)
	}
	// Eval at i=3 cancels; that step still completes, so the boundary
	// checkpoint is at local iteration 4.
	if cerr.Checkpoint.Iter != 4 || len(cerr.Checkpoint.History) != 4 {
		t.Fatalf("checkpoint iter %d / history %d, want 4/4", cerr.Checkpoint.Iter, len(cerr.Checkpoint.History))
	}
	var sawCancel, sawCkpt bool
	for _, e := range sink.Events() {
		switch e.Type {
		case obs.EventCancelled:
			sawCancel = true
			if e.Msg == "" || e.Iter != 4 || e.Trace != "t1" {
				t.Fatalf("cancelled event %+v lacks cause/iter/trace", e)
			}
		case obs.EventCheckpoint:
			sawCkpt = true
			if e.N != 1 {
				t.Fatalf("checkpoint event N = %d, want 1 state field", e.N)
			}
		}
	}
	if !sawCancel || !sawCkpt {
		t.Fatalf("cancel=%v checkpoint=%v events missing from trace", sawCancel, sawCkpt)
	}
}

// TestDriverResumeBitIdentical is the runtime's core guarantee: cancel,
// checkpoint through a gob round trip, restore into a fresh driver, and
// the merged run must equal an uninterrupted one bit for bit.
func TestDriverResumeBitIdentical(t *testing.T) {
	run := func(cancelAt int) (*Outcome, []float64, error) {
		cfg := quadConfig(40)
		cfg.AdaptiveStep = true
		cfg.KeepBest = true
		cfg.Tolerance = 1e-9
		s := newQuadStepper(1.7)
		ctx := context.Background()
		if cancelAt >= 0 {
			cctx, cancel := context.WithCancel(ctx)
			ctx = cctx
			s.cancelAt, s.cancel = cancelAt, cancel
		}
		out, err := NewDriver(s, cfg).Run(ctx)
		return out, s.scales, err
	}

	ref, refScales, err := run(-1)
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = run(13)
	var cerr *Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("cancelled run returned %v", err)
	}

	// Round-trip the checkpoint through the gob file format.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(path, cerr.Checkpoint); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quadConfig(40)
	cfg.AdaptiveStep = true
	cfg.KeepBest = true
	cfg.Tolerance = 1e-9
	s2 := newQuadStepper(0) // wrong start: Restore must overwrite it
	d2 := NewDriver(s2, cfg)
	if err := d2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	res, err := d2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

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
	if res.State.Data[0] != ref.State.Data[0] {
		t.Fatalf("final state %g != reference %g", res.State.Data[0], ref.State.Data[0])
	}
	// The post-resume step scales must continue the reference trajectory.
	for i, sc := range s2.scales {
		if want := refScales[cp.Iter+i]; sc != want {
			t.Fatalf("resumed iteration %d ran at scale %g, reference %g", cp.Iter+i, sc, want)
		}
	}
}

func TestDriverRestoreValidation(t *testing.T) {
	mk := func() *Driver { return NewDriver(newQuadStepper(1), quadConfig(10)) }
	good := mk().Checkpoint()

	if err := mk().Restore(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := *good
	bad.Method = "other"
	if err := mk().Restore(&bad); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("method mismatch: %v, want ErrCheckpointMismatch", err)
	}
	bad = *good
	bad.Offset = 99
	if err := mk().Restore(&bad); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("offset mismatch: %v, want ErrCheckpointMismatch", err)
	}
	bad = *good
	bad.Iter = 11
	if err := mk().Restore(&bad); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("over-budget checkpoint: %v, want ErrCheckpointMismatch", err)
	}
	bad = *good
	bad.State = map[string]*grid.Field{}
	if err := mk().Restore(&bad); err == nil {
		t.Fatal("checkpoint without the state field accepted")
	}
	if err := mk().Restore(good); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestMalformedCheckpointRejected pins the self-consistency checks both
// ReadCheckpoint and Restore apply: a State grid whose Data does not
// fill W×H, a negative iteration or an out-of-window watchdog cursor is
// an error, never a panic or a partial copy.
func TestMalformedCheckpointRejected(t *testing.T) {
	mk := func() *Driver { return NewDriver(newQuadStepper(1), quadConfig(10)) }
	for _, tc := range []struct {
		name   string
		mangle func(cp *Checkpoint)
	}{
		{"short data", func(cp *Checkpoint) { cp.State["x"] = &grid.Field{W: 2, H: 2, Data: []float64{1}} }},
		{"long data", func(cp *Checkpoint) { cp.State["x"] = &grid.Field{W: 2, H: 2, Data: make([]float64, 5)} }},
		{"zero width", func(cp *Checkpoint) { cp.State["x"] = &grid.Field{W: 0, H: 2} }},
		{"negative height", func(cp *Checkpoint) { cp.State["x"] = &grid.Field{W: 2, H: -2, Data: make([]float64, 4)} }},
		{"negative iteration", func(cp *Checkpoint) { cp.Iter = -1 }},
		{"watchdog cursor", func(cp *Checkpoint) { cp.Watchdog = &obs.WatchdogState{Window: []float64{1, 2}, WinLen: 2, WinNext: 2} }},
		{"watchdog length", func(cp *Checkpoint) { cp.Watchdog = &obs.WatchdogState{Window: []float64{1}, WinLen: 3} }},
	} {
		cp := mk().Checkpoint()
		tc.mangle(cp)
		if err := mk().Restore(cp); err == nil {
			t.Errorf("%s: Restore accepted the checkpoint", tc.name)
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, cp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := ReadCheckpoint(&buf); err == nil {
			t.Errorf("%s: ReadCheckpoint accepted the checkpoint", tc.name)
		}
	}
	cp := mk().Checkpoint()
	cp.State["x"] = nil
	if err := mk().Restore(cp); err == nil {
		t.Error("nil state field accepted")
	}
}

func TestCheckpointGobRoundTripNaN(t *testing.T) {
	cp := NewDriver(newQuadStepper(1), quadConfig(10)).Checkpoint()
	cp.PrevCost = math.NaN()
	cp.History = []IterStats{{Iter: 0, Cost: math.Inf(1)}}
	path := filepath.Join(t.TempDir(), "nan.ckpt")
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.PrevCost) || !math.IsInf(got.History[0].Cost, 1) {
		t.Fatalf("non-finite values did not survive the round trip: %+v", got)
	}
}

func TestDriverSnapshotCadence(t *testing.T) {
	s := newQuadStepper(1)
	cfg := quadConfig(7)
	cfg.SnapshotEvery = 3
	out, err := NewDriver(s, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Snapshots) != 3 { // local iterations 0, 3, 6
		t.Fatalf("%d snapshots, want 3", len(out.Snapshots))
	}
	for i, want := range []int{0, 3, 6} {
		if out.Snapshots[i].Iter != want {
			t.Fatalf("snapshot %d at iteration %d, want %d", i, out.Snapshots[i].Iter, want)
		}
	}
}
