// Evolution: reproduce the paper's Fig. 2 — watch the level-set contour
// evolve from the initial (target-shaped) mask to the optimized mask,
// with ASCII previews in the terminal and PGM snapshots on disk.
//
//	go run ./examples/evolution
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lsopc"
	"lsopc/internal/render"
)

func main() {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		log.Fatal(err)
	}
	layout := lsopc.Benchmark("B7") // the U-shape with inner contacts

	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = 16
	opts.SnapshotEvery = 5 // record the mask at iterations 0, 5, 10, 15
	run, err := pipe.OptimizeLevelSet(layout, opts)
	if err != nil {
		log.Fatal(err)
	}

	target, err := pipe.Target(layout)
	if err != nil {
		log.Fatal(err)
	}

	outDir := "evolution_out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Fig.2-style evolution on %s (ψ contour per snapshot):\n\n", layout.Name)
	for _, s := range run.LevelSet.Snapshots {
		printed, _, _, err := pipe.PrintedImages(s.Mask)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- iteration %d: mask area %.0f px, printed vs target ---\n",
			s.Iter, s.Mask.Sum())
		fmt.Print(render.ContourOverlayASCII(target, printed, 72))
		path := filepath.Join(outDir, fmt.Sprintf("mask_iter%02d.pgm", s.Iter))
		if err := render.SavePGM(path, s.Mask, 0, 1); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("--- final optimized mask ---")
	fmt.Print(render.ASCII(run.Mask, 72, 0, 1))
	if err := render.SavePGM(filepath.Join(outDir, "mask_final.pgm"), run.Mask, 0, 1); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncost trace: %.2f", run.LevelSet.History[0].Cost)
	for _, h := range run.LevelSet.History[1:] {
		fmt.Printf(" → %.2f", h.Cost)
	}
	fmt.Printf("\n%s\nsnapshots written to %s/\n", run.Report, outDir)
}
