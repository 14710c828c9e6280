package litho

import (
	"testing"
	"unsafe"
)

// TestSweepGroupLayout: the offsets kernels_amd64.s reads sweepGroup's
// fields at (G_R … G_K) are the struct's.
func TestSweepGroupLayout(t *testing.T) {
	var g sweepGroup
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"r", unsafe.Offsetof(g.r), 0},
		{"w", unsafe.Offsetof(g.w), 24},
		{"scale", unsafe.Offsetof(g.scale), 48},
		{"keep", unsafe.Offsetof(g.keep), 72},
		{"sum", unsafe.Offsetof(g.sum), 96},
		{"tg", unsafe.Offsetof(g.tg), 120},
		{"n", unsafe.Offsetof(g.n), 128},
		{"k", unsafe.Offsetof(g.k), 136},
	} {
		if f.got != f.want {
			t.Errorf("sweepGroup.%s at offset %d, kernels_amd64.s reads %d", f.name, f.got, f.want)
		}
	}
}
