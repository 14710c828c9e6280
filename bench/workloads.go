package main

import (
	"fmt"
	"runtime"

	"lsopc"
	"lsopc/internal/layouts"
	"lsopc/internal/ruleopc"
)

// scale sizes every workload: fullScale is the benchmark, toyScale the
// smoke test's miniature of it.
type scale struct {
	name          string       // golden.json section
	preset        lsopc.Preset // clip simulation scale of iccad_* and verify_pw
	maxIter       int          // iccad_* optimizer budget
	fastClips     []string
	multiresClips []string
	verifyClips   []string
	goldenClips   []string // clips golden.json records for iccad_* and verify_pw
	chips         int      // chips per chip_tiled cycle
	chipN         int      // chip array edge, in cells
	chipCells     []string // the cells every chip places
	chipIter      int      // per-tile optimizer budget of the initial sweep
	benchtime     string   // testing.Benchmark duration of each ladder call
}

var fullScale = scale{
	name:          "full",
	preset:        lsopc.PresetFast,
	maxIter:       lsopc.DefaultLevelSetOptions().MaxIter,
	fastClips:     []string{"B4", "B9"},
	multiresClips: []string{"B4", "B8", "B9"},
	verifyClips:   layouts.IDs(),
	goldenClips:   layouts.IDs(),
	chips:         3,
	chipN:         6,
	chipCells:     append(layouts.IDs(), layouts.IDs()...),
	chipIter:      20,
	benchtime:     "300ms",
}

var toyScale = scale{
	name:          "toy",
	preset:        lsopc.PresetTest,
	maxIter:       2,
	fastClips:     []string{"B4"},
	multiresClips: []string{"B4"},
	verifyClips:   []string{"B4"},
	goldenClips:   []string{"B4"},
	chips:         1,
	chipN:         2,
	chipCells:     []string{"B4", "B9"},
	chipIter:      2,
	benchtime:     "1x",
}

// workload is one closed-loop job mix.
type workload struct {
	name  string
	why   string
	chip  bool // runs at PresetTest tile windows instead of scale.preset
	setup func(c *client, sc scale, specs []jobSpec) (*instance, error)
}

// workloads are in run order; BENCHMARK.json lists the same names.
var workloads = []*workload{
	{
		name:  "iccad_fast",
		why:   "Table II: full level-set runs on single clips; moves with fft, litho and corner scheduling, not with tiling or procwin",
		setup: setupClips(1),
	},
	{
		name:  "iccad_multires",
		why:   "the same optimizer coarse-to-fine: coarse banks, spectral upsampling and FMM hand-off, and their allocations",
		setup: setupClips(2),
	},
	{
		name:  "chip_tiled",
		why:   "full-chip throughput: per-tile fixed costs, stitch re-runs and scheduling across tile workers",
		chip:  true,
		setup: setupChips,
	},
	{
		name:  "verify_pw",
		why:   "forward-only use of the same optics (Evaluate plus a 6x5 process-window sweep); optimizer changes must not move it",
		setup: setupVerify,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) preset(sc scale) lsopc.Preset {
	if w.chip {
		return lsopc.PresetTest
	}
	return sc.preset
}

// instance is a workload after set-up: its built jobs in seed order and
// the untimed warm-up that fills pools, plan caches and kernel banks.
type instance struct {
	jobs []job
	warm func(c *client) error
}

// job is one closed-loop request.
type job struct {
	key string
	run func(c *client) jobResult
}

// jobResult is one job's outcome: its time and the quality the output
// check reads. Err is set when the job failed or its output was wrong.
type jobResult struct {
	Key     string    `json:"key"`
	Seconds float64   `json:"s"`
	Ref     float64   `json:"ref_s,omitempty"` // hostRef around the job
	Err     string    `json:"err,omitempty"`
	EPE     int       `json:"epe"`
	PVB     float64   `json:"pvb_nm2"`
	Shape   int       `json:"shape"`
	CD      []float64 `json:"cd_nm,omitempty"`
	// chip_tiled only.
	Seam     float64 `json:"seam,omitempty"`
	Tiles    int     `json:"tiles,omitempty"`
	NonEmpty int     `json:"nonempty_tiles,omitempty"`
	Passes   int     `json:"stitch_passes,omitempty"`
}

func failed(err error) jobResult { return jobResult{Err: err.Error()} }

func reportResult(r lsopc.Report) jobResult {
	return jobResult{EPE: r.EPEViolations, PVB: r.PVBandNM2, Shape: r.ShapeViolations}
}

// setupClips builds iccad_fast (factor 1) or iccad_multires (factor 2):
// one DefaultLevelSetOptions run per clip, evaluated by the pipeline.
func setupClips(factor int) func(c *client, sc scale, specs []jobSpec) (*instance, error) {
	return func(c *client, sc scale, specs []jobSpec) (*instance, error) {
		opts := lsopc.DefaultLevelSetOptions()
		opts.MaxIter = sc.maxIter
		opts.MultiResFactor = factor
		inst := &instance{}
		var first *lsopc.Layout
		for _, s := range specs {
			l, _, err := c.clip(s.Clip)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = l
			}
			inst.jobs = append(inst.jobs, job{key: s.key(), run: func(c *client) jobResult {
				var r *lsopc.RunResult
				var err error
				c.call("lsopc.OptimizeLevelSet", func() { r, err = c.pipe.OptimizeLevelSet(l, opts) })
				if err != nil {
					return failed(err)
				}
				return reportResult(r.Report)
			}})
		}
		warm := opts
		warm.MaxIter = 2
		inst.warm = func(c *client) error {
			_, err := c.pipe.OptimizeLevelSet(first, warm)
			return err
		}
		return inst, nil
	}
}

// setupVerify builds verify_pw: Evaluate plus ProcessWindow on the raw
// target or its rule-based correction.
func setupVerify(c *client, sc scale, specs []jobSpec) (*instance, error) {
	pitch := int(c.pipe.PixelNM())
	inst := &instance{}
	for _, s := range specs {
		l, target, err := c.clip(s.Clip)
		if err != nil {
			return nil, err
		}
		mask := target
		if s.Mask == maskRuleOPC {
			if mask, err = ruleopc.Apply(target, ruleopc.DefaultOptions(c.pipe.PixelNM())); err != nil {
				return nil, err
			}
		}
		cut := cutThrough(l, target, pitch)
		inst.jobs = append(inst.jobs, job{key: s.key(), run: func(c *client) jobResult {
			var rep lsopc.Report
			var pw *lsopc.ProcessWindowResult
			var err error
			c.call("lsopc.Evaluate", func() { rep, err = c.pipe.Evaluate(l, mask, 0) })
			if err != nil {
				return failed(err)
			}
			c.call("lsopc.ProcessWindow", func() { pw, err = c.pipe.ProcessWindow(mask, cut) })
			if err != nil {
				return failed(err)
			}
			r := reportResult(rep)
			for _, p := range pw.Points {
				r.CD = append(r.CD, p.CDNM)
			}
			return r
		}})
	}
	inst.warm = func(c *client) error {
		if r := inst.jobs[0].run(c); r.Err != "" {
			return fmt.Errorf("warm-up: %s", r.Err)
		}
		return nil
	}
	return inst, nil
}

// cutThrough is the process-window cut through the middle of the
// clip's first shape, across its narrower side. A polygon's bounding
// box centre may miss the polygon, so the cut moves along the centre
// row to the middle of the first printed run there.
func cutThrough(l *lsopc.Layout, target *lsopc.Field, pitch int) lsopc.CutLine {
	b := l.Bounds()
	if len(l.Rects) > 0 {
		b = l.Rects[0]
	} else if len(l.Polys) > 0 {
		b = l.Polys[0].Bounds()
	}
	cut := lsopc.CutLine{X: (b.X0 + b.X1) / 2 / pitch, Y: (b.Y0 + b.Y1) / 2 / pitch, Horizontal: b.W() <= b.H()}
	if target.At(cut.X, cut.Y) > 0.5 {
		return cut
	}
	for x := b.X0 / pitch; x < b.X1/pitch; x++ {
		if target.At(x, cut.Y) > 0.5 {
			end := x
			for end < b.X1/pitch && target.At(end, cut.Y) > 0.5 {
				end++
			}
			return lsopc.CutLine{X: (x + end - 1) / 2, Y: cut.Y, Horizontal: true}
		}
	}
	return cut
}

// maxSeam bounds a chip's worst seam disagreement after its stitch
// passes. Two passes leave up to 0.047 on these chips, above the
// tiler's own 0.01 convergence tolerance, so every chip runs both
// passes and SeamConverged stays false; the bound catches broken
// blending or stitching instead.
const maxSeam = 0.1

// setupChips builds chip_tiled: a tiled optimization of each chip, then
// an Evaluate of every placed cell's window of the chip mask.
func setupChips(c *client, sc scale, specs []jobSpec) (*instance, error) {
	cellPx := c.pipe.GridSize()
	if cellPx*int(c.pipe.PixelNM()) != layouts.CanvasNM {
		return nil, fmt.Errorf("tile window %d px does not cover one %d nm cell", cellPx, layouts.CanvasNM)
	}
	opts := lsopc.TileOptions{HaloNM: 256, Workers: runtime.NumCPU(), StitchPasses: 2, StitchIters: 4}
	opts.Core = lsopc.DefaultLevelSetOptions()
	opts.Core.MaxIter = sc.chipIter
	type cell struct {
		x, y int
		l    *lsopc.Layout
	}
	inst := &instance{}
	var first *lsopc.Layout
	for _, s := range specs {
		chip, err := layouts.Chip(sc.chipN, sc.chipN, s.Cells)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = chip
		}
		var cells []cell
		for i, id := range s.Cells {
			if id == layouts.EmptyCell {
				continue
			}
			l, _, err := c.clip(id)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{x: i % sc.chipN * cellPx, y: i / sc.chipN * cellPx, l: l})
		}
		inst.jobs = append(inst.jobs, job{key: s.key(), run: func(c *client) jobResult {
			var res *lsopc.TiledResult
			var err error
			c.call("lsopc.OptimizeTiled", func() { res, err = c.pipe.OptimizeTiled(chip, opts) })
			if err != nil {
				return failed(err)
			}
			r := jobResult{Seam: res.Seam, Tiles: len(res.Tiles), Passes: res.Passes}
			for _, t := range res.Tiles {
				if !t.Empty {
					r.NonEmpty++
				}
			}
			if res.Seam > maxSeam {
				r.Err = fmt.Sprintf("worst seam disagreement %.4f above %.2f", res.Seam, maxSeam)
				return r
			}
			for _, cl := range cells {
				var rep lsopc.Report
				c.call("lsopc.Evaluate", func() {
					rep, err = c.pipe.Evaluate(cl.l, res.Mask.SubRegion(cl.x, cl.y, cellPx, cellPx), 0)
				})
				if err != nil {
					return failed(err)
				}
				r.EPE += rep.EPEViolations
				r.Shape += rep.ShapeViolations
				r.PVB += rep.PVBandNM2 / float64(len(cells))
			}
			return r
		}})
	}
	warm := opts
	warm.Core.MaxIter = 2
	warm.StitchPasses = -1
	inst.warm = func(c *client) error {
		_, err := c.pipe.OptimizeTiled(first, warm)
		return err
	}
	return inst, nil
}
