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

// tailLanes is the number of chunks whose sum chains the gradient
// sweep's vector kernel runs side by side, one chunk per lane; each
// chunk's sums stay one serial chain in pixel order.
const tailLanes = 4

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

	// Sweep 1: the central-difference |∇ψ| into g's rows, then
	// g = G·|∇ψ| in place and the chunks' partial sums, up to tailLanes
	// chunks at a time.
	o.gradBody = func(lo, hi int) {
		for c := lo; c < hi; {
			k := min(tailLanes, hi-c)
			y0, _ := rows(c)
			_, y1 := rows(c + k - 1)
			levelset.GradMagRows(o.gTerm, o.psi, y0, y1)
			i0, i1 := y0*n, y1*n
			gradSums(o.partials[c*numSums:(c+k)*numSums], o.gTerm.Data[i0:i1], o.grad.Data[i0:i1],
				o.gPrev.Data[i0:i1], o.velocity.Data[i0:i1], tailRows*n, o.opWithPrev)
			c += k
		}
	}

	// Sweep 2: v = g + λ·v_prev and the chunk's max|v|.
	o.velocityBody = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			y0, y1 := rows(c)
			i0, i1 := y0*n, y1*n
			o.partials[c*numSums] = velocity(o.velocity.Data[i0:i1], o.gTerm.Data[i0:i1], o.opLambda)
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
	o.saveBody = func(lo, hi int) { copy(o.bestPsi.Data[lo:hi], o.psi.Data[lo:hi]) }
}

// gradSums sets g = G·g over consecutive chunks of chunkLen pixels (the
// last may be shorter) and writes each chunk's numSums partial sums
// into partials, g on entry holding |∇ψ|. Without withPrev only the
// g·g sums are formed and gp and v are not read. Runs of tailLanes
// full chunks go through the vector kernel where the CPU has it.
func gradSums(partials, g, G, gp, v []float64, chunkLen int, withPrev bool) {
	for lo := 0; lo < len(g); lo += chunkLen {
		if len(g)-lo >= tailLanes*chunkLen && gradSumsVec(partials, g[lo:], G[lo:], gp[lo:], v[lo:], chunkLen, withPrev) {
			partials = partials[tailLanes*numSums:]
			lo += (tailLanes - 1) * chunkLen
			continue
		}
		hi := min(lo+chunkLen, len(g))
		sums := (*[numSums]float64)(partials)
		if withPrev {
			*sums = gradSumsGo(g[lo:hi], G[lo:hi], gp[lo:hi], v[lo:hi])
		} else {
			*sums = [numSums]float64{sumGG: gradNormGo(g[lo:hi], G[lo:hi])}
		}
		partials = partials[numSums:]
	}
}

// gradSumsGo sets g[j] = G[j]·g[j] for every j of g (the others at least
// as long) and returns the numSums sums of one chunk, each one serial
// chain in ascending j. It is the reference of the vector kernel, which
// gives the same bits.
//
//go:noinline
func gradSumsGo(g, G, gp, v []float64) (sums [numSums]float64) {
	G, gp, v = G[:len(g)], gp[:len(g)], v[:len(g)]
	for j, gm := range g {
		gj := G[j] * gm
		g[j] = gj
		sums[sumGG] += gj * gj
		sums[sumGGPrev] += gj * gp[j]
		sums[sumGPrevGPrev] += gp[j] * gp[j]
		sums[sumVPrevG] += v[j] * gj
	}
	return sums
}

// gradNormGo is gradSumsGo without the previous iteration's terms: it
// sets g = G·g and returns Σ g·g in ascending j.
//
//go:noinline
func gradNormGo(g, G []float64) float64 {
	G = G[:len(g)]
	var gg float64
	for j, gm := range g {
		gj := G[j] * gm
		g[j] = gj
		gg += gj * gj
	}
	return gg
}

// velocity sets v = g + λ·v (v = g for λ = 0) over one chunk and returns
// its max|v|. A NaN never wins the max, so a NaN velocity reads as 0.
func velocity(v, g []float64, lambda float64) float64 {
	n, maxV := velocityVec(v, g, lambda)
	if m := velocityGo(v[n:], g[n:], lambda); m > maxV {
		maxV = m
	}
	return maxV
}

// velocityGo is velocity as a Go loop, the reference of the vector
// kernel: v[j] = g[j] + λ·v[j] for every j of v (g at least as long),
// and the max of |v[j]| over the non-NaN values (0 when there are none).
//
//go:noinline
func velocityGo(v, g []float64, lambda float64) float64 {
	g = g[:len(v)]
	var maxV float64
	if lambda == 0 {
		for j, gj := range g {
			v[j] = gj
			if a := math.Abs(gj); a > maxV {
				maxV = a
			}
		}
		return maxV
	}
	for j, gj := range g {
		vj := gj + lambda*v[j]
		v[j] = vj
		if a := math.Abs(vj); a > maxV {
			maxV = a
		}
	}
	return maxV
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
	// g becomes g_prev by a swap: the next gradient sweep overwrites
	// the old g_prev's storage with its |∇ψ|.
	o.gTerm, o.gPrev = o.gPrev, o.gTerm
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
