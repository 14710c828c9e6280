package analyze

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lsopc/internal/obs"
)

// traceBuf renders events through a real JSONLSink so the tests parse
// exactly what production traces contain (seq + timestamps included).
func traceBuf(t *testing.T, events []obs.Event) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func iterEvent(trace string, i int, cost float64) obs.Event {
	return obs.Event{
		Type: obs.EventIteration, Trace: trace, Engine: "gpu",
		Iter: i, Cost: cost, CostNominal: cost * 0.7, CostPVB: cost * 0.5,
		GradNorm: cost / 10, MaxVelocity: 0.5, TimeStep: 1.5, DurNS: int64(1e6 + i*1e5),
	}
}

func TestParseTypedRun(t *testing.T) {
	var events []obs.Event
	// Session s1: geometric convergence over 12 iterations.
	cost := 1000.0
	for i := 0; i < 12; i++ {
		events = append(events, iterEvent("s1", i, cost))
		events = append(events,
			obs.Event{Type: obs.EventCorner, Trace: "s1", Name: "forward_gradient", Corner: "nominal", DurNS: 2e6},
			obs.Event{Type: obs.EventCorner, Trace: "s1", Name: "forward_gradient", Corner: "outer", DurNS: 3e6},
		)
		cost *= 0.8
	}
	events = append(events, obs.Event{Type: obs.EventSpan, Trace: "s1", Name: "optimize.levelset", Engine: "gpu", DurNS: 5e7})
	// Runtime events (no session).
	for i := 0; i < 8; i++ {
		events = append(events, obs.Event{Type: obs.EventPlanCache, Name: "plan1d", N: 128, Hit: i > 1})
		events = append(events, obs.Event{Type: obs.EventPool, Name: "field", N: 64, Hit: i > 3})
		events = append(events, obs.Event{Type: obs.EventPool, Name: "field.release", N: 64})
	}

	run, err := Parse(traceBuf(t, events), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if run.Events != len(events) {
		t.Fatalf("events = %d, want %d", run.Events, len(events))
	}
	if run.ByType[obs.EventIteration] != 12 || run.ByType[obs.EventCorner] != 24 {
		t.Fatalf("by-type counts wrong: %v", run.ByType)
	}
	if got := run.PlanCache; got.Hits != 6 || got.Misses != 2 {
		t.Fatalf("plan cache = %+v", got)
	}
	if got := run.Pool; got.Hits != 4 || got.Misses != 4 || run.PoolReleases != 8 {
		t.Fatalf("pool = %+v releases=%d", got, run.PoolReleases)
	}
	if r := run.Pool.Rate(); r != 0.5 {
		t.Fatalf("pool rate = %g, want 0.5", r)
	}

	s := run.Sessions["s1"]
	if s == nil || len(s.Iterations) != 12 || s.Run.Engine != "gpu" {
		t.Fatalf("session s1 = %+v", s)
	}
	c := s.Convergence
	if c.Iterations != 12 || c.FirstCost != 1000 {
		t.Fatalf("convergence = %+v", c)
	}
	if c.BestIter != 11 || c.Stalled || c.NonFinite || c.Diverged {
		t.Fatalf("convergence flags = %+v", c)
	}
	// ln(0.8) per iteration ≈ -0.223.
	if math.Abs(c.SlopeLogPerIter-math.Log(0.8)) > 1e-9 {
		t.Fatalf("slope = %g, want %g", c.SlopeLogPerIter, math.Log(0.8))
	}
	if c.ReductionFrac < 0.9 {
		t.Fatalf("reduction = %g, want > 0.9", c.ReductionFrac)
	}

	// Phase aggregation: per-corner split and exact quantiles.
	nom := run.Phase("corner:forward_gradient/nominal")
	if nom == nil || nom.Count != 12 || nom.P50NS != 2e6 || nom.MaxNS != 2e6 {
		t.Fatalf("nominal corner phase = %+v", nom)
	}
	if sp := run.Phase("span:optimize.levelset"); sp == nil || sp.Count != 1 || sp.TotalNS != 5e7 {
		t.Fatalf("span phase = %+v", sp)
	}
	// Phases sort by total time descending.
	if run.Phases[0].TotalNS < run.Phases[len(run.Phases)-1].TotalNS {
		t.Fatal("phases not sorted by total time")
	}
	if run.WallNS <= 0 {
		t.Fatalf("wall = %d, want > 0", run.WallNS)
	}
}

func TestParseDetectsStallAndNaNAndHealth(t *testing.T) {
	var events []obs.Event
	// s1 stalls: constant cost after iteration 2.
	for i := 0; i < 10; i++ {
		c := 100.0
		if i < 2 {
			c = 200 - float64(i)*50
		}
		events = append(events, iterEvent("s1", i, c))
	}
	// s2 goes NaN at iteration 3 and carries a watchdog event.
	for i := 0; i < 5; i++ {
		c := 50.0
		if i >= 3 {
			c = math.NaN()
		}
		events = append(events, iterEvent("s2", i, c))
	}
	events = append(events, obs.Event{Type: obs.EventHealth, Trace: "s2", Iter: 3, Msg: obs.HealthNonFiniteCost, Cost: math.NaN()})

	run, err := Parse(traceBuf(t, events), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	c1 := run.Sessions["s1"].Convergence
	if !c1.Stalled || c1.StallIter < 2 {
		t.Fatalf("s1 convergence = %+v, want stalled", c1)
	}
	c2 := run.Sessions["s2"].Convergence
	if !c2.NonFinite || c2.NonFiniteIter != 3 {
		t.Fatalf("s2 convergence = %+v, want non-finite at 3", c2)
	}
	if len(run.Health) != 1 || run.Health[0].Msg != obs.HealthNonFiniteCost {
		t.Fatalf("run health = %+v", run.Health)
	}
	if h := run.Sessions["s2"].Health; len(h) != 1 || h[0].Reason != obs.HealthNonFiniteCost {
		t.Fatalf("s2 health = %+v", h)
	}
}

func TestParseDetectsDivergence(t *testing.T) {
	var events []obs.Event
	costs := []float64{100, 50, 20, 10, 400}
	for i, c := range costs {
		events = append(events, iterEvent("s1", i, c))
	}
	run, err := Parse(traceBuf(t, events), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	c := run.Sessions["s1"].Convergence
	if !c.Diverged || c.BestCost != 10 || c.BestIter != 3 {
		t.Fatalf("convergence = %+v, want diverged with best 10 @ 3", c)
	}
	if c.ReductionFrac >= 0 {
		t.Fatalf("reduction = %g, want negative", c.ReductionFrac)
	}
}

// TestParseBestIsFiniteAtIterationNumber pins the offline best-cost
// rule to the live one (obs.Fold): the best cost is the lowest finite
// cost, reported at its iteration number — not its index in the series
// — for a resumed run, for a level segment after the first, and for a
// series that opens with a non-finite cost.
func TestParseBestIsFiniteAtIterationNumber(t *testing.T) {
	var resumed []obs.Event
	for i, c := range []float64{9, 8, 2, 3, 4, 5, 6} {
		resumed = append(resumed, iterEvent("s1", 5+i, c))
	}
	run, err := Parse(traceBuf(t, resumed), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	s := run.Sessions["s1"]
	if c := s.Convergence; c.BestCost != 2 || c.BestIter != 7 {
		t.Errorf("resumed: best %g @%d, want 2 @7", c.BestCost, c.BestIter)
	}
	if s.Run.BestCost != 2 || s.Run.BestIter != 7 {
		t.Errorf("resumed: folded best %g @%d, want 2 @7", s.Run.BestCost, s.Run.BestIter)
	}

	var multires []obs.Event
	for i, c := range []float64{40, 30, 20, 10, 5, 6, 7} {
		if i == 3 {
			multires = append(multires, obs.Event{Type: obs.EventLevelSwitch, Trace: "s1", Iter: 3, OldN: 64, N: 128})
		}
		multires = append(multires, iterEvent("s1", i, c))
	}
	run, err = Parse(traceBuf(t, multires), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	lv := run.Sessions["s1"].Levels
	if len(lv) != 2 || lv[1].StartIter != 3 {
		t.Fatalf("levels = %+v, want two with the second from iteration 3", lv)
	}
	if c := lv[1].Convergence; c.BestCost != 5 || c.BestIter != 4 {
		t.Errorf("second level: best %g @%d, want 5 @4", c.BestCost, c.BestIter)
	}

	run, err = Parse(traceBuf(t, []obs.Event{
		iterEvent("s1", 0, math.Inf(-1)), iterEvent("s1", 1, 3), iterEvent("s1", 2, 5),
	}), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	s = run.Sessions["s1"]
	if c := s.Convergence; c.BestCost != 3 || c.BestIter != 1 || !c.NonFinite {
		t.Errorf("-Inf first: best %g @%d non-finite=%v, want 3 @1, true", c.BestCost, c.BestIter, c.NonFinite)
	}
	if s.Run.BestCost != 3 || s.Run.BestIter != 1 {
		t.Errorf("-Inf first: folded best %g @%d, want 3 @1", s.Run.BestCost, s.Run.BestIter)
	}
}

func TestParseTiledRun(t *testing.T) {
	var events []obs.Event
	// Initial sweep: 4 tiles, tile 4 non-converged.
	for ti := 1; ti <= 4; ti++ {
		events = append(events,
			obs.Event{Type: obs.EventTileStart, Trace: "job", Tile: ti, Pass: 0, Name: "{0 0 512 512}"},
			obs.Event{Type: obs.EventTileDone, Trace: "job", Tile: ti, Pass: 0, Iter: 20, Hit: ti != 4, DurNS: int64(ti) * 1e7},
		)
	}
	// Two stitch passes re-running tiles 2 and 4; second pass converges.
	for p := 1; p <= 2; p++ {
		for _, ti := range []int{2, 4} {
			events = append(events,
				obs.Event{Type: obs.EventTileStart, Trace: "job", Tile: ti, Pass: p},
				obs.Event{Type: obs.EventTileDone, Trace: "job", Tile: ti, Pass: p, Iter: 5, Hit: true, DurNS: 1e7},
			)
		}
		events = append(events, obs.Event{
			Type: obs.EventStitchPass, Trace: "job", Pass: p, N: 2,
			Seam: 0.04 / float64(p), Hit: p == 2, DurNS: 3e7,
		})
	}

	run, err := Parse(traceBuf(t, events), DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	td := run.Tiled
	if td == nil {
		t.Fatal("tiled stats missing")
	}
	if td.Tiles != 4 || td.Runs != 8 || td.Converged != 7 {
		t.Fatalf("tiled = %+v, want 4 tiles / 8 runs / 7 converged", td)
	}
	if td.MaxTileNS != 4e7 {
		t.Fatalf("max tile = %d, want 4e7", td.MaxTileNS)
	}
	if td.P50TileNS <= 0 || td.P99TileNS < td.P50TileNS {
		t.Fatalf("tile percentiles p50=%g p99=%g", td.P50TileNS, td.P99TileNS)
	}
	if len(td.Stitch) != 2 {
		t.Fatalf("stitch passes = %d, want 2", len(td.Stitch))
	}
	if s := td.Stitch[1]; s.Pass != 2 || s.Tiles != 2 || !s.Converged || s.Seam != 0.02 {
		t.Fatalf("stitch[1] = %+v", s)
	}
	if ph := run.Phase("tile"); ph == nil || ph.Count != 8 {
		t.Fatalf("tile phase = %+v, want count 8", ph)
	}
	if ph := run.Phase("stitch_pass"); ph == nil || ph.Count != 2 {
		t.Fatalf("stitch_pass phase = %+v, want count 2", ph)
	}
}

func TestParseRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader(""), DefaultThresholds()); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Parse(strings.NewReader("{not json\n"), DefaultThresholds()); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := Parse(strings.NewReader(`{"seq":1}`+"\n"), DefaultThresholds()); err == nil {
		t.Fatal("type-less event accepted")
	}
}

func TestPercentile(t *testing.T) {
	durs := []int64{10, 20, 30, 40}
	if got := percentile(durs, 0.5); got != 25 {
		t.Fatalf("p50 = %g, want 25", got)
	}
	if got := percentile(durs, 0); got != 10 {
		t.Fatalf("p0 = %g, want 10", got)
	}
	if got := percentile(durs, 1); got != 40 {
		t.Fatalf("p100 = %g, want 40", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Fatalf("single-sample p99 = %g, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g, want 0", got)
	}
}

func TestDiff(t *testing.T) {
	mk := func(cornerNS int64, finalCost float64) *Run {
		var events []obs.Event
		cost := 100.0
		for i := 0; i < 6; i++ {
			events = append(events, iterEvent("s1", i, cost))
			events = append(events, obs.Event{Type: obs.EventCorner, Trace: "s1", Name: "forward", Corner: "nominal", DurNS: cornerNS})
			cost = finalCost + (cost-finalCost)*0.5
		}
		events = append(events, obs.Event{Type: obs.EventPlanCache, Name: "plan1d", N: 64, Hit: true})
		run, err := Parse(traceBuf(t, events), DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a := mk(1e6, 10)
	a.Label = "a.jsonl"
	b := mk(2e6, 10)
	b.Label = "b.jsonl"
	d := Diff(a, b)
	if d.A != "a.jsonl" || d.B != "b.jsonl" {
		t.Fatalf("labels = %q, %q", d.A, d.B)
	}
	var corner *PhaseDelta
	for i := range d.Phases {
		if d.Phases[i].Name == "corner:forward/nominal" {
			corner = &d.Phases[i]
		}
	}
	if corner == nil || corner.P50Ratio != 2 {
		t.Fatalf("corner delta = %+v, want p50 ratio 2", corner)
	}
	if d.Convergence.ASessions != 1 || d.Convergence.BSessions != 1 {
		t.Fatalf("convergence delta = %+v", d.Convergence)
	}
	if d.APlanHitRate != 1 || d.BPlanHitRate != 1 {
		t.Fatalf("plan hit rates = %g, %g", d.APlanHitRate, d.BPlanHitRate)
	}
}
