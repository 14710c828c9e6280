// Package procwin provides full process-window analysis on top of the
// forward lithography model: Bossung curves (printed critical dimension
// versus focus, one curve per dose), CD-through-window matrices, and the
// process-window yield metric (the fraction of focus×dose conditions
// keeping CD within tolerance).
//
// The paper evaluates robustness only through the PV band at the two
// extreme corners; this package generalises that to the dense
// focus/dose matrix a lithographer would actually inspect, and is used
// by the processwindow example and the pw CLI. The sweep runs on a litho
// simulator session: one SOCS pass per focus value on the session's
// banded batch path, every dose thresholded from that pass.
package procwin

import (
	"fmt"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

// The sweep matrix covers the process window of the simulator's PV-band
// corners — focus up to the inner corner's defocus, dose ±DoseVar (the
// contest's ±25 nm, ±2 %) — in focusSteps × doseSteps samples.
const (
	focusSteps = 6
	doseSteps  = 5
)

// CutLine selects where CD is measured: the printed run length through
// pixel (X, Y) along the given axis.
type CutLine struct {
	X, Y       int
	Horizontal bool // true: measure width along X; false: along Y
}

// Point is one matrix sample.
type Point struct {
	DefocusNM float64
	Dose      float64
	CDNM      float64 // printed critical dimension at the cut (0 = feature lost)
}

// Result is a full sweep outcome.
type Result struct {
	Points   []Point
	TargetCD float64 // CD at nominal conditions
}

// Analyzer sweeps masks across the focus×dose matrix on one simulator
// session. It borrows the session — the session's kernel banks, batch
// FFT plan and pooled scratch — so, like the session, it is not safe for
// concurrent use.
type Analyzer struct {
	sim *litho.Simulator
}

// New builds an analyzer on the simulator session sim; the matrix spans
// the session's litho.Config DefocusNM and DoseVar.
func New(sim *litho.Simulator) (*Analyzer, error) {
	if sim == nil {
		return nil, fmt.Errorf("procwin: analyzer requires a simulator session")
	}
	return &Analyzer{sim: sim}, nil
}

// focusValues returns the swept defocus values in nm, evenly over
// [0, DefocusNM] (defocus is symmetric in this scalar model, so
// negative focus repeats the positive branch).
func (a *Analyzer) focusValues() []float64 {
	maxNM := a.sim.Config().DefocusNM
	out := make([]float64, focusSteps)
	for i := range out {
		out[i] = maxNM * float64(i) / (focusSteps - 1)
	}
	return out
}

// doseValues returns the swept dose factors, evenly over
// [1−DoseVar, 1+DoseVar].
func (a *Analyzer) doseValues() []float64 {
	delta := a.sim.Config().DoseVar
	out := make([]float64, doseSteps)
	for i := range out {
		t := float64(i) / (doseSteps - 1)
		out[i] = 1 - delta + 2*delta*t
	}
	return out
}

// measureCD returns the printed run length (nm) through the cut on the
// thresholded image dose·aerial ≥ I_th, with aerial at unit dose.
func (a *Analyzer) measureCD(aerial *grid.Field, dose float64, cut CutLine) float64 {
	th := a.sim.Config().Threshold / dose
	n := aerial.W
	on := func(x, y int) bool { return aerial.At(x, y) >= th }
	if !on(cut.X, cut.Y) {
		return 0
	}
	count := 1
	if cut.Horizontal {
		for x := cut.X - 1; x >= 0 && on(x, cut.Y); x-- {
			count++
		}
		for x := cut.X + 1; x < n && on(x, cut.Y); x++ {
			count++
		}
	} else {
		for y := cut.Y - 1; y >= 0 && on(cut.X, y); y-- {
			count++
		}
		for y := cut.Y + 1; y < aerial.H && on(cut.X, y); y++ {
			count++
		}
	}
	return float64(count) * a.sim.PixelNM()
}

// Sweep measures the CD at the cut across the full focus×dose matrix:
// one mask spectrum, then one unit-dose SOCS pass per focus value
// (litho.Simulator.AerialAtFocus) that every dose thresholds. The mask
// must match the simulation grid and the cut's pixel must lie on it.
func (a *Analyzer) Sweep(mask *grid.Field, cut CutLine) (*Result, error) {
	n := a.sim.GridSize()
	if mask.W != n || mask.H != n {
		return nil, fmt.Errorf("procwin: mask %dx%d does not match grid %d", mask.W, mask.H, n)
	}
	if cut.X < 0 || cut.X >= n || cut.Y < 0 || cut.Y >= n {
		return nil, fmt.Errorf("procwin: cut at (%d, %d) lies outside the %dx%d grid", cut.X, cut.Y, n, n)
	}
	pool := a.sim.Pool()
	spec, aerial := pool.CField(n, n), pool.Field(n, n)
	defer pool.PutCField(spec)
	defer pool.PutField(aerial)
	a.sim.MaskSpectrumInto(spec, mask)

	doses := a.doseValues()
	res := &Result{Points: make([]Point, 0, focusSteps*doseSteps)}
	for fi, f := range a.focusValues() {
		if err := a.sim.AerialAtFocus(aerial, spec, f); err != nil {
			return nil, err
		}
		for _, d := range doses {
			res.Points = append(res.Points, Point{
				DefocusNM: f,
				Dose:      d,
				CDNM:      a.measureCD(aerial, d, cut),
			})
		}
		if fi == 0 {
			res.TargetCD = a.measureCD(aerial, 1, cut)
		}
	}
	return res, nil
}

// WindowYield returns the fraction of matrix points whose CD stays
// within ±tolFrac of targetCD (0 targetCD yields 0).
func (r *Result) WindowYield(targetCD, tolFrac float64) float64 {
	if targetCD <= 0 || len(r.Points) == 0 {
		return 0
	}
	ok := 0
	for _, p := range r.Points {
		dev := p.CDNM/targetCD - 1
		if dev >= -tolFrac && dev <= tolFrac {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Points))
}

// Bossung groups the sweep into per-dose focus curves for plotting.
func (r *Result) Bossung() map[float64][]Point {
	out := make(map[float64][]Point)
	for _, p := range r.Points {
		out[p.Dose] = append(out[p.Dose], p)
	}
	return out
}
