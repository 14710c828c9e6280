package core

import (
	"math"

	"lsopc/internal/grid"
	"lsopc/internal/levelset"
)

// The level-set tail of an iteration — everything after the corner
// simulations — runs as engine-parallel sweeps over a fixed partition
// of the grid into chunks of tailRows rows. Reductions take one partial
// per chunk and add the partials in chunk order. The chunk count
// depends on the grid alone, never on the engine's worker count, so
// every sum and λ^PRP are bit-identical on every engine.
const tailRows = 8

// The per-chunk partial sums of the gradient sweep.
const (
	sumGG         = iota // g·g
	sumGGPrev            // g·g_prev
	sumGPrevGPrev        // g_prev·g_prev
	sumVPrevG            // v_prev·g
	numSums
)

// span views the elements [lo, hi) of f as a 1-row field sharing f's
// storage, so the whole-field element-wise operations run per chunk.
func span(f *grid.Field, lo, hi int) grid.Field {
	return grid.Field{W: hi - lo, H: 1, Data: f.Data[lo:hi]}
}

// bindTail creates the tail's engine bodies and partial-sum storage
// once, so an iteration reuses them without allocating.
func (o *Optimizer) bindTail() {
	n := o.sim.GridSize()
	o.tailChunks = (n + tailRows - 1) / tailRows
	o.partials = make([]float64, o.tailChunks*numSums)
	rows := func(c int) (y0, y1 int) { return c * tailRows, min((c+1)*tailRows, n) }

	// Sweep 1: the central-difference |∇ψ|, g = G·|∇ψ| and the chunk's
	// partial sums.
	o.gradBody = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			y0, y1 := rows(c)
			levelset.GradMagRows(o.gmag, o.psi, y0, y1)
			i0, i1 := y0*n, y1*n
			G, gm, g := o.grad.Data[i0:i1], o.gmag.Data[i0:i1], o.gTerm.Data[i0:i1]
			var sums [numSums]float64
			if o.opWithPrev {
				gp, v := o.gPrev.Data[i0:i1], o.velocity.Data[i0:i1]
				for j := range g {
					gj := G[j] * gm[j]
					g[j] = gj
					sums[sumGG] += gj * gj
					sums[sumGGPrev] += gj * gp[j]
					sums[sumGPrevGPrev] += gp[j] * gp[j]
					sums[sumVPrevG] += v[j] * gj
				}
			} else {
				for j := range g {
					gj := G[j] * gm[j]
					g[j] = gj
					sums[sumGG] += gj * gj
				}
			}
			copy(o.partials[c*numSums:], sums[:])
		}
	}

	// Sweep 2: v = g + λ·v_prev, the g_prev copy and the chunk's
	// max|v|.
	o.velocityBody = func(lo, hi int) {
		lambda := o.opLambda
		for c := lo; c < hi; c++ {
			y0, y1 := rows(c)
			i0, i1 := y0*n, y1*n
			g, gp, v := o.gTerm.Data[i0:i1], o.gPrev.Data[i0:i1], o.velocity.Data[i0:i1]
			var maxV float64
			for j, gj := range g {
				vj := gj
				if lambda != 0 {
					vj = gj + lambda*v[j]
				}
				gp[j] = gj
				v[j] = vj
				if a := math.Abs(vj); a > maxV {
					maxV = a
				}
			}
			o.partials[c*numSums] = maxV
		}
	}

	o.maskBody = func(lo, hi int) {
		m, p := span(o.mask, lo, hi), span(o.opPsi, lo, hi)
		levelset.MaskFromPsi(&m, &p)
	}
	o.evolveBody = func(lo, hi int) {
		p, v := span(o.psi, lo, hi), span(o.velocity, lo, hi)
		levelset.Evolve(&p, &v, o.opDt)
	}
	o.zeroBody = func(lo, hi int) { clear(o.grad.Data[lo:hi]) }
	o.saveBody = func(lo, hi int) {
		copy(o.bestMask.Data[lo:hi], o.mask.Data[lo:hi])
		copy(o.bestPsi.Data[lo:hi], o.psi.Data[lo:hi])
	}
}

// velocityFromGradient forms the evolution velocity from the gradient
// in o.grad (Eqs. 10, 15–16) in two sweeps and returns λ^PRP; withPrev
// enables the conjugate term, which needs the previous iteration's g
// and v. It caches ‖g‖² and max|v| for GradNorm and StepSize.
//
// The velocity is v = +G·|∇ψ| (Eq. 10 with our sign convention). The
// paper writes v = −∂L/∂M·|∇ψ| for its ψ orientation; with ψ < 0 inside
// and M = H(−ψ) (Eqs. 5–6), dL/dt = −⟨G·δ(ψ), v⟩, so descent requires
// v = +G|∇ψ|: raising ψ where ∂L/∂M > 0 retracts the contour there.
func (o *Optimizer) velocityFromGradient(withPrev bool) float64 {
	eng := o.sim.Engine()
	o.opWithPrev = withPrev
	eng.ForChunk(o.tailChunks, o.gradBody)
	var sums [numSums]float64
	for c := 0; c < o.tailChunks; c++ {
		for k := range sums {
			sums[k] += o.partials[c*numSums+k]
		}
	}
	o.gNorm2 = sums[sumGG]

	lambda := 0.0
	if withPrev {
		lambda = prpCoefficient(sums[sumGG], sums[sumGGPrev], sums[sumGPrevGPrev])
		// Restart safeguard: the conjugate direction must remain a
		// descent direction (positively aligned with g, since the
		// update applies +v). A contour that jumped pixels can
		// decorrelate the gradients enough to violate this. The test
		// (g + λ·v_prev)·g ≤ 0 is taken from sweep 1's sums, so sweep
		// 2 writes the final v in one pass.
		if lambda != 0 && sums[sumGG]+lambda*sums[sumVPrevG] <= 0 {
			lambda = 0
		}
	}
	o.opLambda = lambda
	eng.ForChunk(o.tailChunks, o.velocityBody)
	o.maxV = 0
	for c := 0; c < o.tailChunks; c++ {
		if m := o.partials[c*numSums]; m > o.maxV {
			o.maxV = m
		}
	}
	return lambda
}

// maskFromPsi sets o.mask to the Eq. 6 mask of psi on the engine.
func (o *Optimizer) maskFromPsi(psi *grid.Field) {
	o.opPsi = psi
	o.sim.Engine().ForChunk(len(psi.Data), o.maskBody)
	o.opPsi = nil
}

// evolve advances ψ ← ψ + Δt·v on the engine (Algorithm 1, line 6).
func (o *Optimizer) evolve(dt float64) {
	o.opDt = dt
	o.sim.Engine().ForChunk(len(o.psi.Data), o.evolveBody)
}
