// Processwindow: reproduce the paper's Fig. 1 — the two robustness
// metrics. Prints a benchmark at the three process corners (nominal;
// outer = +2 % dose; inner = 25 nm defocus, −2 % dose), shows the PV
// band (the XOR of the extreme contours) and the EPE probe measurements,
// and demonstrates how the process-variation cost term shrinks both.
//
//	go run ./examples/processwindow
package main

import (
	"fmt"
	"log"

	"lsopc"
	"lsopc/internal/render"
)

func main() {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		log.Fatal(err)
	}
	layout := lsopc.Benchmark("B4")
	target, err := pipe.Target(layout)
	if err != nil {
		log.Fatal(err)
	}

	// --- Fig. 1(b): the PV band of the unoptimized design. ---
	nominal, outer, inner, err := pipe.PrintedImages(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("unoptimized design printed at the three process corners:")
	fmt.Printf("  nominal: %6.0f px   outer(+2%% dose): %6.0f px   inner(defocus,−2%%): %6.0f px\n",
		nominal.Sum(), outer.Sum(), inner.Sum())

	band := pvBand(outer, inner)
	fmt.Println("\nPV band (XOR of outer and inner contours, Fig. 1b):")
	fmt.Print(render.ASCII(band, 72, 0, 1))
	px := pipe.PixelNM()
	fmt.Printf("PV band area: %.0f nm²\n\n", band.Sum()*px*px)

	// --- Optimize with and without the PV-band cost (Eq. 12/13). ---
	for _, w := range []float64{0, 1.0} {
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = 25
		opts.PVBWeight = w
		run, err := pipe.OptimizeLevelSet(layout, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("optimized with w_pvb = %.1f: %s\n", w, run.Report)
	}

	fmt.Println("\n(the weighted run trades nominal-only fidelity for a tighter")
	fmt.Println(" process window — the paper's Eq. 12 cost in action; see the")
	fmt.Println(" w_pvb sweep in EXPERIMENTS.md for the full trade-off curve)")
}

func pvBand(outer, inner *lsopc.Field) *lsopc.Field {
	band := &lsopc.Field{W: outer.W, H: outer.H, Data: make([]float64, len(outer.Data))}
	for i := range band.Data {
		if (outer.Data[i] > 0.5) != (inner.Data[i] > 0.5) {
			band.Data[i] = 1
		}
	}
	return band
}
