package analyze

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lsopc/internal/obs"
)

// replayRecord is the byte length of one fuzzed iteration: a control
// byte (bit 0 starts a new level before the iteration) and the raw
// float64 bits of its cost, gradient norm and time step.
const replayRecord = 1 + 3*8

// replaySeed encodes one fuzz input from iterations given as
// {level switch (0/1), cost, gradient norm, time step}.
func replaySeed(iters ...[4]float64) []byte {
	var b []byte
	for _, it := range iters {
		b = append(b, byte(it[0]))
		for _, v := range it[1:] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// FuzzReplayMatchesWatchdog is the differential check between the live
// health rule and its offline replay: a fuzzed series of costs,
// gradient norms and time steps (NaN, ±Inf, zeros, negatives and
// subnormals included) is judged by a live obs.Watchdog while it is
// emitted as the solve driver emits it — one iteration event per
// iteration, a health event per verdict, a level_switch and a fresh
// watchdog where a new level starts — through a JSONLSink. Parse must
// replay the same verdicts: same iterations, reasons and costs (NaN
// matching NaN), which also pins the trace's float round trip.
func FuzzReplayMatchesWatchdog(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	f.Add(replaySeed([4]float64{0, 100, 1, 0.5}, [4]float64{0, nan, 1, 0.5}, [4]float64{0, 100, -inf, 0.5}, [4]float64{0, inf, 1, 0.5}))
	f.Add(replaySeed([4]float64{0, 4, 1, 0.5}, [4]float64{0, 3, 1, 0.5}, [4]float64{0, 2, 1, 0.5}, [4]float64{0, 25, 1, 0.5},
		[4]float64{1, 300, 1, 0.5}, [4]float64{0, 3000, 1, 0.5}))
	var stall [][4]float64
	for i := 0; i < 20; i++ {
		stall = append(stall, [4]float64{float64(i / 12), sub * float64(i%3), -0.0, math.Copysign(0, -1)})
	}
	f.Add(replaySeed(stall...))
	f.Add(replaySeed([4]float64{0, -5, sub, -1}, [4]float64{0, -1e308, 0, 1e-320}, [4]float64{0, 1e308, 2, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		var live []HealthEvent
		wd := obs.NewWatchdog(true)
		for i := 0; (i+1)*replayRecord <= len(data); i++ {
			rec := data[i*replayRecord : (i+1)*replayRecord]
			var v [3]float64
			for k := range v {
				v[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[1+8*k:]))
			}
			cost, gradNorm, timeStep := v[0], v[1], v[2]
			if rec[0]&1 != 0 && i > 0 {
				sink.Emit(obs.Event{Type: obs.EventLevelSwitch, Trace: "s1", Iter: i, OldN: 64, N: 128})
				wd = obs.NewWatchdog(true)
			}
			sink.Emit(obs.Event{
				Type: obs.EventIteration, Trace: "s1", Iter: i,
				Cost: cost, GradNorm: gradNorm, MaxVelocity: gradNorm, TimeStep: timeStep,
			})
			if reason := wd.Observe(cost, gradNorm, timeStep); reason != "" {
				live = append(live, HealthEvent{Iter: i, Reason: reason, Cost: cost})
				sink.Emit(obs.Event{
					Type: obs.EventHealth, Trace: "s1", Iter: i,
					Cost: cost, GradNorm: gradNorm, TimeStep: timeStep, Msg: reason,
				})
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			return
		}
		run, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		replay := run.Sessions["s1"].Health
		if len(replay) != len(live) || len(run.Health) != len(live) {
			t.Fatalf("replay %+v, live %+v, trace health events %d", replay, live, len(run.Health))
		}
		for k, h := range replay {
			l := live[k]
			sameCost := h.Cost == l.Cost || (math.IsNaN(h.Cost) && math.IsNaN(l.Cost))
			if h.Iter != l.Iter || h.Reason != l.Reason || !sameCost {
				t.Fatalf("verdict %d: replay %+v, live %+v", k, h, l)
			}
		}
	})
}
