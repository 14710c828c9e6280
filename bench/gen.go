package main

import (
	"math/rand/v2"
	"strconv"

	"lsopc/internal/layouts"
)

// This is the only file that reads the seed. It turns a seed into each
// workload's ordered job list; set-up builds layouts and masks from the
// list without seeing the seed.
//
// What a workload's jobs contain does not depend on the seed: per-clip
// optimization time differs by up to 25 % across B1–B10, and a chip's
// PV band by about 5 % across clip placements, so runs that drew
// different clips or placements per seed would measure the draw rather
// than the code. The seed orders each workload's jobs.

// Mask kinds of a verify_pw job.
const (
	maskRaw     = "raw"     // the rasterised target itself
	maskRuleOPC = "ruleopc" // the ruleopc.Apply correction of the target
)

// jobSpec describes one job before set-up builds its inputs.
type jobSpec struct {
	Clip  string   // ICCAD clip id (iccad_* and verify_pw)
	Mask  string   // verify_pw: maskRaw or maskRuleOPC
	Chip  int      // chip_tiled: the chip's number, from 1
	Cells []string // chip_tiled: row-major cell ids, layouts.EmptyCell when empty
}

// key names the job in golden.json and in the per-job output.
func (s jobSpec) key() string {
	switch {
	case s.Cells != nil:
		return "chip" + strconv.Itoa(s.Chip)
	case s.Mask != "":
		return s.Clip + "." + s.Mask
	}
	return s.Clip
}

// plan is every workload's job list for one seed.
type plan map[string][]jobSpec

// genPlan builds the job lists of every workload at the given scale.
func genPlan(seed int64, sc scale) plan {
	p := plan{}
	for i, w := range workloads {
		var specs []jobSpec
		switch w.name {
		case "iccad_fast":
			specs = clipSpecs(sc.fastClips, "")
		case "iccad_multires":
			specs = clipSpecs(sc.multiresClips, "")
		case "verify_pw":
			specs = append(clipSpecs(sc.verifyClips, maskRaw), clipSpecs(sc.verifyClips, maskRuleOPC)...)
		case "chip_tiled":
			specs = chipSpecs(sc)
		}
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
		rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
		p[w.name] = specs
	}
	return p
}

func clipSpecs(ids []string, mask string) []jobSpec {
	specs := make([]jobSpec, len(ids))
	for i, id := range ids {
		specs[i] = jobSpec{Clip: id, Mask: mask}
	}
	return specs
}

// chipSpecs builds sc.chips chips. All share one occupancy pattern, so
// each optimizes the same number of tiles; each places sc.chipCells in
// its own order.
func chipSpecs(sc scale) []jobSpec {
	n := sc.chipN
	slots := rand.New(rand.NewPCG(0, 0)).Perm(n * n)[:len(sc.chipCells)]
	specs := make([]jobSpec, sc.chips)
	for c := range specs {
		cells := make([]string, n*n)
		for i := range cells {
			cells[i] = layouts.EmptyCell
		}
		for i, ci := range rand.New(rand.NewPCG(0, uint64(c+1))).Perm(len(sc.chipCells)) {
			cells[slots[i]] = sc.chipCells[ci]
		}
		specs[c] = jobSpec{Chip: c + 1, Cells: cells}
	}
	return specs
}
