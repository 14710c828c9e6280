package lsopc

import (
	"testing"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/metrics"
)

// TestEvaluateMatchesSeparateCorners: Evaluate and PrintedImages run the
// nominal and outer corners from one shared best-focus SOCS pass. Their
// printed images and the Report must equal what three separate
// PrintedBinary calls give, bit for bit.
func TestEvaluateMatchesSeparateCorners(t *testing.T) {
	p, err := NewPipeline(PresetTest, CPUEngine())
	if err != nil {
		t.Fatal(err)
	}
	l := Benchmark("B4")
	target, err := p.Target(l)
	if err != nil {
		t.Fatal(err)
	}
	sim := p.Simulator()
	n := sim.GridSize()
	spec := grid.NewCField(n, n)
	sim.MaskSpectrumInto(spec, target)
	ref := map[litho.Condition]*grid.Field{}
	for _, cond := range litho.AllConditions {
		ref[cond] = grid.NewField(n, n)
		sim.PrintedBinary(ref[cond], spec, cond)
	}
	if ref[litho.Outer].XORCount(ref[litho.Inner]) == 0 {
		t.Fatal("degenerate test: outer and inner print identically")
	}

	nom, outer, inner, err := p.PrintedImages(target)
	if err != nil {
		t.Fatal(err)
	}
	for cond, got := range map[litho.Condition]*grid.Field{litho.Nominal: nom, litho.Outer: outer, litho.Inner: inner} {
		if !got.Equal(ref[cond], 0) {
			t.Fatalf("PrintedImages %v differs from PrintedBinary", cond)
		}
	}

	report, err := p.Evaluate(l, target, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	epe, _ := metrics.EPE(ref[litho.Nominal], metrics.Probes(l), sim.PixelNM())
	want := Report{
		EPEViolations:   epe,
		PVBandNM2:       metrics.PVBand(ref[litho.Outer], ref[litho.Inner], sim.PixelNM()),
		ShapeViolations: metrics.ShapeViolations(ref[litho.Nominal], target),
		RuntimeSec:      1,
	}
	if report != want {
		t.Fatalf("Evaluate = %+v, separate corners give %+v", report, want)
	}
}
