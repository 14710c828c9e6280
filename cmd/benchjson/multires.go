package main

import "lsopc"

// multiresMain measures the Table II per-case optimization runtime for
// the full-resolution float64 reference and the coarse-to-fine
// (factor 2, float64) schedule, writing both into one artefact under
// the fixed labels "baseline" and "multires". The same file then gates
// the speedup:
//
//	benchdiff -old-labels baseline -new-labels multires \
//	    BENCH_multires.json BENCH_multires.json
//
// exits non-zero if coarse-to-fine is ever slower than the reference —
// the schedule's quality equivalence is enforced separately by
// TestMultiResMatchesBaselineQuality (EPE/PVB within tolerance on all
// ten benchmarks). Both variants share one pipeline.
func multiresMain(out, filter string) error {
	const maxIter = 10 // matches the root BenchmarkTable2PerCase

	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		return err
	}
	baseOpts := lsopc.DefaultLevelSetOptions()
	baseOpts.MaxIter = maxIter
	multiOpts := baseOpts
	multiOpts.MultiResFactor = 2

	// One layout per case, shared by both variants, so the pipeline's
	// target memo builds each case's target once.
	var cases []string
	clips := map[string]*lsopc.Layout{}
	for _, spec := range lsopc.Benchmarks() {
		name := "Table2PerCase/" + spec.ID
		cases = append(cases, name)
		clips[name] = lsopc.Benchmark(spec.ID)
	}
	optimize := func(opts lsopc.LevelSetOptions) prepareFunc {
		return func(name string) (func() error, func(), error) {
			return func() error {
				_, err := pipe.OptimizeLevelSet(clips[name], opts)
				return err
			}, nil, nil
		}
	}
	return runAB(out,
		"Table II per-case optimization runtime (PresetTest, 10 iterations): full-resolution float64 baseline vs coarse-to-fine multi-resolution (factor 2, float64). Quality equivalence (final EPE/PVB within tolerance on all ten ICCAD cases) is enforced by TestMultiResMatchesBaselineQuality; this artefact locks in the speed side via cmd/benchdiff (-old-labels baseline -new-labels multires).",
		filter, cases, [2]variant{
			{"baseline", "full-resolution float64 reference", optimize(baseOpts)},
			{"multires", "coarse-to-fine factor 2, float64", optimize(multiOpts)},
		})
}
