package solve

import (
	"bytes"
	"math"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// FuzzReadCheckpoint checks that decoding plus validation of untrusted
// checkpoint bytes returns a checkpoint or an error and never panics,
// and that every accepted checkpoint holds only well-formed State grids
// and re-encodes.
func FuzzReadCheckpoint(f *testing.F) {
	cp := NewDriver(newQuadStepper(1), quadConfig(10)).Checkpoint()
	cp.History = []IterStats{{Iter: 0, Cost: 1}, {Iter: 1, Cost: math.Inf(1)}}
	cp.Watchdog = &obs.WatchdogState{Window: []float64{3, 2, 0}, WinLen: 2, WinNext: 2}
	cp.State["psi"] = grid.NewField(4, 3)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		for name, g := range cp.State {
			if g.W*g.H != len(g.Data) {
				t.Fatalf("accepted state %q: %dx%d with %d values", name, g.W, g.H, len(g.Data))
			}
		}
		if err := WriteCheckpoint(new(bytes.Buffer), cp); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
	})
}
