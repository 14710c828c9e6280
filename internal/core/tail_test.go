package core

import (
	"fmt"
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
)

// The unfused level-set tail, kept as the reference the fused sweeps of
// tail.go are checked against: the whole-field stencils, the Hadamard
// product, the field-based PRP coefficient, the velocity update and its
// restart dot and MaxAbs, each a separate serial pass in the original
// order.

// refGradMag is the reference central-difference |∇ψ|.
func refGradMag(dst, psi *grid.Field) {
	w, h := psi.W, psi.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var gx, gy float64
			switch {
			case x == 0:
				gx = psi.At(1, y) - psi.At(0, y)
			case x == w-1:
				gx = psi.At(w-1, y) - psi.At(w-2, y)
			default:
				gx = 0.5 * (psi.At(x+1, y) - psi.At(x-1, y))
			}
			switch {
			case y == 0:
				gy = psi.At(x, 1) - psi.At(x, 0)
			case y == h-1:
				gy = psi.At(x, h-1) - psi.At(x, h-2)
			default:
				gy = 0.5 * (psi.At(x, y+1) - psi.At(x, y-1))
			}
			dst.Set(x, y, math.Hypot(gx, gy))
		}
	}
}

// refPRP is the reference field-based PRP+ coefficient.
func refPRP(g, gPrev *grid.Field) float64 {
	den := gPrev.Norm2()
	if den == 0 {
		return 0
	}
	lambda := (g.Norm2() - g.Dot(gPrev)) / den
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return 0
	}
	return math.Min(lambda, 1)
}

// refTail holds the reference tail's outputs.
type refTail struct {
	gmag, gTerm, gPrev, velocity *grid.Field
	lambda, maxV, gNorm          float64
}

// referenceTail runs the unfused tail on copies of ψ, G, g_prev and
// v_prev. Its λ is the serial field-based one; the velocity update
// takes the λ under test instead (useLambda, before the restart test),
// so the per-pixel fields must match the fused sweeps exactly while the
// two λ are compared within a bound.
func referenceTail(psi, G, gPrev, vPrev *grid.Field, withPrev bool, useLambda float64) refTail {
	n := psi.W
	r := refTail{
		gmag: grid.NewField(n, n), gTerm: grid.NewField(n, n),
		gPrev: gPrev.Clone(), velocity: vPrev.Clone(),
	}
	refGradMag(r.gmag, psi)
	r.gTerm.Mul(G, r.gmag)

	restart := func(lambda float64) float64 {
		if lambda == 0 {
			return 0
		}
		v := vPrev.Clone()
		for j := range v.Data {
			v.Data[j] = r.gTerm.Data[j] + lambda*v.Data[j]
		}
		if v.Dot(r.gTerm) <= 0 {
			return 0
		}
		return lambda
	}
	lambda := 0.0
	if withPrev {
		r.lambda = restart(refPRP(r.gTerm, r.gPrev))
		lambda = restart(useLambda)
	}
	if lambda == 0 {
		r.velocity.CopyFrom(r.gTerm)
	} else {
		for j := range r.velocity.Data {
			r.velocity.Data[j] = r.gTerm.Data[j] + lambda*r.velocity.Data[j]
		}
	}
	r.gPrev.CopyFrom(r.gTerm)
	r.maxV = r.velocity.MaxAbs()
	r.gNorm = r.gTerm.Norm()
	return r
}

// tailTol bounds the difference between the fused tail's chunked
// reductions and the reference's serial ones: |Δλ| (λ ∈ [0, 1]) and the
// relative difference of ‖g‖. Both sum the same products in another
// order; the measured difference on the 64 px inputs is ~1e-15.
const tailTol = 1e-12

// tailInputs returns ψ (a perturbed signed distance of the cross), a
// signed gradient G, and random g_prev and v_prev on an n-pixel grid.
func tailInputs(n int) (psi, G, gPrev, vPrev *grid.Field) {
	psi = levelset.SignedDistance(crossTarget(n))
	G, gPrev, vPrev = grid.NewField(n, n), grid.NewField(n, n), grid.NewField(n, n)
	r := uint64(17)
	next := func() float64 {
		r = r*6364136223846793005 + 1442695040888963407
		return float64(r>>11)/float64(1<<53)*2 - 1
	}
	for i := range psi.Data {
		psi.Data[i] += 0.3 * next()
		G.Data[i] = next()
		gPrev.Data[i] = 1.5 * next()
		vPrev.Data[i] = next()
	}
	return psi, G, gPrev, vPrev
}

func fieldsIdentical(t *testing.T, what string, got, want *grid.Field) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: pixel %d = %v, reference %v (must be ==)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestFusedTailMatchesReference runs the fused velocity sweeps and the
// unfused reference on the same ψ, G, g_prev and v_prev: every
// per-pixel field must be bit-identical, max|v| too (a max does not
// depend on the order), and λ and ‖g‖ within tailTol. It runs on a
// 64 px grid and on a 512 px one whose kernels live on a reduced grid,
// with keep-best on, on engines of 1, 2 and 3 workers: 512 px gives 64
// chunks, so the gradient sweep's vector kernel runs four chunks per
// lane group, with groups cut short where a worker's chunk range ends.
func TestFusedTailMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mut      func(*Options)
		withPrev bool
		restart  bool // force v_prev = −g, g_prev = −g/2: λ caps at 1, v = 0
	}{
		{"cg off", func(o *Options) { o.UseCG = false }, false, false},
		{"cg on", func(*Options) {}, true, false},
		{"forced restart", func(*Options) {}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mut(&opts)
			for _, g := range []struct {
				n       int
				pixelNM float64
			}{{64, 32}, {512, 4}} {
				n := g.n
				for _, workers := range []int{1, 2, 3} {
					eng := engine.New(fmt.Sprintf("tail%d", workers), workers)
					cfg := litho.DefaultConfig(n, g.pixelNM)
					cfg.Optics.Kernels = 2
					sim, err := litho.NewSimulator(cfg, eng)
					if err != nil {
						t.Fatal(err)
					}
					if n == 512 && sim.ReducedGrid() >= n {
						t.Fatalf("%d px: reduced grid %d, want < %d", n, sim.ReducedGrid(), n)
					}
					o, err := newOptimizer(sim, crossTarget(n), opts, true)
					if err != nil {
						t.Fatal(err)
					}
					psi, G, gPrev, vPrev := tailInputs(n)
					if tc.restart {
						g := grid.NewField(n, n)
						refGradMag(g, psi)
						g.Mul(G, g)
						vPrev.Scale(g, -1)
						gPrev.Scale(g, -0.5)
					}
					o.psi.CopyFrom(psi)
					o.grad.CopyFrom(G)
					o.gPrev.CopyFrom(gPrev)
					o.velocity.CopyFrom(vPrev)
					lambda := o.velocityFromGradient(tc.withPrev)

					ref := referenceTail(psi, G, gPrev, vPrev, tc.withPrev, lambda)
					label := fmt.Sprintf("%s/%dpx/%d workers", tc.name, n, workers)
					gm := grid.NewField(n, n)
					levelset.GradMagRows(gm, psi, 0, psi.H)
					fieldsIdentical(t, label+" |∇ψ|", gm, ref.gmag)
					// The sweeps leave g in gPrev: the next iteration's
					// g_prev is this one's g, swapped in, not copied.
					fieldsIdentical(t, label+" g", o.gPrev, ref.gTerm)
					fieldsIdentical(t, label+" g_prev", o.gPrev, ref.gPrev)
					fieldsIdentical(t, label+" v", o.velocity, ref.velocity)
					if math.Abs(lambda-ref.lambda) > tailTol {
						t.Fatalf("%s: λ = %v, reference %v", label, lambda, ref.lambda)
					}
					switch {
					case tc.restart && lambda != 0:
						t.Fatalf("%s: forced restart kept λ = %v", label, lambda)
					case tc.withPrev && !tc.restart && !(lambda > 0 && lambda < 1):
						t.Fatalf("%s: λ = %v, want a conjugate step in (0, 1)", label, lambda)
					}
					if _, maxV := (*levelStepper)(o).StepSize(1); maxV != ref.maxV {
						t.Fatalf("%s: max|v| = %v, reference %v", label, maxV, ref.maxV)
					}
					if g := (*levelStepper)(o).GradNorm(); math.Abs(g-ref.gNorm) > tailTol*ref.gNorm {
						t.Fatalf("%s: ‖g‖ = %v, reference %v", label, g, ref.gNorm)
					}
					o.Release()
					sim.Release()
				}
			}
		})
	}
}

// TestEngineEquivalentRunsReducedGrid runs the whole optimizer at 128 px
// / 8 nm, where the per-kernel fields live on a reduced grid (m < N), so
// the real-output upsample, low-pass and gradient inverses, the fused
// tail and the parallel reinit all run: every worker count must give
// the serial engine's mask and trace bit for bit.
func TestEngineEquivalentRunsReducedGrid(t *testing.T) {
	const n = 128
	opts := DefaultOptions()
	opts.MaxIter = 12 // reaches the reinitialisation after iteration 9
	target := crossTarget(n)
	run := func(workers int) *Result {
		cfg := litho.DefaultConfig(n, 8)
		cfg.Optics.Kernels = 3
		sim, err := litho.NewSimulator(cfg, engine.New("eq", workers))
		if err != nil {
			t.Fatal(err)
		}
		if m := sim.ReducedGrid(); m >= n {
			t.Fatalf("reduced grid %d, want < %d", m, n)
		}
		return runOpts(t, sim, target, opts)
	}
	ref := run(1)
	for _, workers := range []int{2, 3} {
		got := run(workers)
		if !got.Mask.Equal(ref.Mask, 0) || !got.State.Equal(ref.State, 0) {
			t.Fatalf("workers=%d: mask or ψ differs from the serial engine", workers)
		}
		if len(got.History) != len(ref.History) {
			t.Fatalf("workers=%d: history length %d vs %d", workers, len(got.History), len(ref.History))
		}
		for i, h := range got.History {
			if h != ref.History[i] {
				t.Fatalf("workers=%d iter %d: %+v vs serial %+v", workers, i, h, ref.History[i])
			}
		}
	}
}
