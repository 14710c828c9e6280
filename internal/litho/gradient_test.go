package litho

import "lsopc/internal/grid"

// GradientInto is the unfused reference gradient the equivalence,
// fused and linearity tests compare the corner-set calls with. It
// accumulates the Jacobian of L = ‖R − R*‖² with respect to the mask at
// one corner (Eq. 11) into grad, scaled by weight:
//
//	grad += weight · ∂‖R(cond) − target‖²/∂M.
//
// R must be the sigmoid resist image previously computed by Forward for
// the same maskSpec and corner. With W = 2·s·dose·(R−R*)⊙R⊙(1−R) and
// E_k = h_k ⊗ M, the Jacobian is Σ_k μ_k·2 Re{flip(h_k) ⊗ (W⊙conj(E_k))};
// the per-kernel terms are accumulated as spectra so the final inverse
// transform happens once. It recomputes E_k and W from r, runs the
// adjoint of ForwardAndGradient into a scratch field, bit for bit, and
// adds that into grad.
func (s *Simulator) GradientInto(grad *grid.Field, maskSpec *grid.CField, cond Condition, target *grid.Field, r *grid.Field, weight float64) {
	corners := [1]Corner{{Cond: cond, Weight: weight}}
	s.stageBanks(corners[:])
	s.socs(s.planes(), maskSpec)
	w, c := s.plane[0], s.sensScale(cond, weight)
	s.eng.ForChunk(len(r.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rv := r.Data[i]
			w.Data[i] = c * (rv - target.Data[i]) * rv * (1 - rv)
		}
	})
	g := grid.NewFieldLike(grad)
	s.adjoint(g)
	grad.Add(grad, g)
}
