package litho

import (
	"slices"
	"strings"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Corner is one process corner of a corner-set call (ForwardCorners,
// ForwardAndGradientCorners). Any set of corners runs as one pass on the
// session's engine; corners that share a kernel bank (nominal and outer)
// share one SOCS pass and one resist sensitivity field.
type Corner struct {
	Cond Condition
	// Weight scales the corner's cost gradient (ForwardAndGradientCorners).
	Weight float64
	// Out, when non-nil, receives the corner's dose-scaled aerial image
	// if Out.Aerial is non-nil and its sigmoid resist image if Out.R is
	// non-nil. Every corner needs its own.
	Out *CornerImages
	// Cost is set by the call to ‖R − target‖² when a target is given.
	Cost float64
}

// sweepRows is the row count of one chunk of the resist sweep. The
// chunk count depends on the grid alone, never on the engine's worker
// count, and the per-chunk cost partials are added in chunk order, so
// costs are bit-identical on every engine (and equal to CostAt).
const sweepRows = 8

// kernelSlot names the kernel behind one field of the batch: kernel k
// of the call's bank b.
type kernelSlot struct{ bank, k int }

// stageBanks copies the call's corners into the session (so the
// caller's slice never escapes), and records their distinct kernel banks
// in order of first appearance, each corner's bank index, and one batch
// slot per kernel in bank-then-k order. It allocates only while the
// session's slices grow.
func (s *Simulator) stageBanks(corners []Corner) {
	s.staged = append(s.staged[:0], corners...)
	s.banks, s.cornerBank = s.banks[:0], s.cornerBank[:0]
	for _, c := range corners {
		bank := s.Bank(c.Cond)
		b := 0
		for b < len(s.banks) && s.banks[b] != bank {
			b++
		}
		if b == len(s.banks) {
			s.banks = append(s.banks, bank)
		}
		s.cornerBank = append(s.cornerBank, b)
	}
	s.stageSlots()
}

// stageSlots lays out one batch slot per kernel of s.banks.
func (s *Simulator) stageSlots() {
	s.slots = s.slots[:0]
	for b, bank := range s.banks {
		for k := range bank.Kernels {
			s.slots = append(s.slots, kernelSlot{b, k})
		}
	}
}

// planes returns one full-grid real field per staged bank, leased from
// the session's pool on first use (Release returns them). A plane holds
// the bank's unit-dose aerial image, then its resist
// sensitivity W, then (plane 0) the gradient's real output.
func (s *Simulator) planes() []*grid.Field {
	n := s.GridSize()
	for len(s.plane) < len(s.banks) {
		s.plane = append(s.plane, s.pool.Field(n, n))
	}
	return s.plane[:len(s.banks)]
}

// socs computes every staged bank's unit-dose aerial image
// Σ_k μ_k |h_k ⊗ M|² into dsts: all banks' kernel products are materialised and inverse-transformed by one
// batched banded FFT on the reduced grid, then per bank the SOCS sum is
// reduced and, on a reduced grid, upsampled to the full grid (band 2r).
// The fields E_k stay in the batch for the adjoint.
func (s *Simulator) socs(dsts []*grid.Field, maskSpec *grid.CField) {
	fields := s.kernelFields(len(s.slots))
	s.opFields, s.opSpec = fields, maskSpec
	s.eng.ForChunk(len(fields), s.materializeBody)
	s.opFields, s.opSpec = nil, nil
	s.small.BatchInverseBanded(fields, s.radius)
	off := 0
	for b, bank := range s.banks {
		bf := fields[off : off+len(bank.Kernels)]
		off += len(bank.Kernels)
		if s.m == s.GridSize() {
			s.reduceAbsSq(dsts[b], bf, bank)
		} else {
			s.reduceAbsSq(s.smallReal, bf, bank)
			s.upsample(dsts[b], s.smallReal, 2*s.radius)
		}
	}
}

// simulate runs the forward model for every corner in one pass: one
// SOCS pass per bank, then one resist sweep that writes the requested
// images and, given a target, the costs and each bank's weighted resist
// sensitivity (left in its plane for the adjoint).
func (s *Simulator) simulate(maskSpec *grid.CField, target *grid.Field, corners []Corner) {
	s.stageBanks(corners)
	s.socs(s.planes(), maskSpec)
	s.resistSweep(target)
	for i := range corners {
		corners[i].Cost = s.staged[i].Cost
	}
	clear(s.staged) // drop the references to the caller's images
}

// resistSweep runs the resist model over a fixed partition of the grid
// into chunks of sweepRows rows, engine-parallel. Per chunk it first
// computes every corner's σ (into the corner's Out.R, else a per-worker
// buffer), then, given a target, adds each corner's (R−R*)² to the
// chunk's cost partial and sets or accumulates sensScale·(R−R*)⊙R⊙(1−R)
// into its bank's plane — over the bank's aerial, which every σ of the
// chunk has already read.
func (s *Simulator) resistSweep(target *grid.Field) {
	n := s.GridSize()
	chunks := (n + sweepRows - 1) / sweepRows
	corners := s.staged
	nc := len(corners)
	if need := chunks * nc; len(s.partials) < need {
		s.partials = make([]float64, need)
	}
	if need := nc * sweepRows * n; len(s.sweepBuf[0]) < need {
		for w := range s.sweepBuf {
			s.sweepBuf[w] = make([]float64, need)
		}
	}
	s.opTarget = target
	s.eng.Map(chunks, s.sweepBody)
	s.opTarget = nil
	if target == nil {
		return
	}
	for ci := range corners {
		var cost float64
		for c := 0; c < chunks; c++ {
			cost += s.partials[c*nc+ci]
		}
		corners[ci].Cost = cost
	}
}

// sweepChunk is the resist sweep's body for one chunk of the grid.
func (s *Simulator) sweepChunk(worker, chunk int) {
	n := s.GridSize()
	i0, i1 := chunk*sweepRows*n, min((chunk+1)*sweepRows, n)*n
	size := i1 - i0
	corners, target, plane := s.staged, s.opTarget, s.plane
	buf := s.sweepBuf[worker]
	needR := target != nil
	// rOf returns corner ci's resist image over the chunk.
	rOf := func(ci int) []float64 {
		if out := corners[ci].Out; out != nil && out.R != nil {
			return out.R.Data[i0:i1]
		}
		return buf[ci*size : (ci+1)*size]
	}
	for ci, c := range corners {
		a := plane[s.cornerBank[ci]].Data[i0:i1]
		dose := s.Dose(c.Cond)
		if c.Out != nil && c.Out.Aerial != nil {
			aerial := c.Out.Aerial.Data[i0:i1]
			if dose != 1 {
				for j, v := range a {
					aerial[j] = dose * v
				}
			} else {
				copy(aerial, a)
			}
		}
		// σ of the dose-scaled aerial, the dose folded in: the bits of
		// σ over the scaled copy.
		if needR || c.Out != nil && c.Out.R != nil {
			grid.SigmoidDoseInto(rOf(ci), a, dose, s.cfg.Steepness, s.cfg.Threshold)
		}
	}
	if target == nil {
		return
	}
	// Every corner's cost and sensitivity in one pass over the chunk,
	// over the banks' aerials, which every σ above has already read.
	cs := s.sweepCorners[worker][:0]
	for ci, c := range corners {
		b := s.cornerBank[ci]
		cs = append(cs, costCorner{
			r:     rOf(ci),
			w:     plane[b].Data[i0:i1],
			scale: s.sensScale(c.Cond, c.Weight),
			first: slices.Index(s.cornerBank, b) == ci,
		})
	}
	costSens(cs, target.Data[i0:i1])
	for ci := range cs {
		s.partials[chunk*len(corners)+ci] = cs[ci].sum
	}
	clear(cs) // drop the references to the caller's images
	s.sweepCorners[worker] = cs
}

// sensScale is the factor of a corner's resist sensitivity
// W = sensScale·(R−R*)⊙R⊙(1−R): 2·s·dose from ∂‖R−R*‖²/∂I through the
// sigmoid, the corner's weight, and the 2 of the gradient's 2·Re{·}.
// Folding the weight into W lets one adjoint serve every corner.
func (s *Simulator) sensScale(cond Condition, weight float64) float64 {
	return 4 * s.cfg.Steepness * s.Dose(cond) * weight
}

// adjoint runs the adjoint half of Eq. 11 for every staged bank and sets
// grad to the result. It needs the bank's E_k in the kernel batch, as
// socs leaves them, and each bank's resist sensitivity W in its plane.
// Per bank W, on a reduced grid, enters through its band-2r samples
// there (the only part the bins the adjoint reads
// depend on). One engine sweep then turns every field into
// W ⊙ conj(E_k), one batched output-pruned forward FFT gives their
// spectra, and every kernel flip-multiplies into the one full-grid
// accumulator in bank-then-k order, in an engine sweep over the
// accumulator's band rows (each row cleared, then accumulated). Only Re
// of its inverse enters the gradient, and Re of an inverse is the
// inverse of the spectrum's Hermitian part, so the box is symmetrised
// and inverse-transformed by one real-output pass, whose result is
// written into grad as 0 + x, the bits an add into a zeroed grad gives.
func (s *Simulator) adjoint(grad *grid.Field) {
	planes := s.planes()
	s.opWs = s.opWs[:0]
	for b := range s.banks {
		w := planes[b]
		if s.m < s.GridSize() {
			for len(s.lowW) <= b {
				s.lowW = append(s.lowW, s.pool.Field(s.m, s.m))
			}
			w = s.lowW[b]
			s.lowPassSamples(w, planes[b], 2*s.radius)
		}
		s.opWs = append(s.opWs, w)
	}
	fields := s.kernelFields(len(s.slots))
	s.opFields = fields
	s.eng.ForChunk(len(fields)*s.m*s.m, s.adjointBody)
	s.opFields = nil
	s.small.BatchForwardBandedCols(fields, s.radius)
	s.opFields, s.opBand = fields, s.radius
	s.eng.ForChunk(2*s.radius+1, s.accumBody)
	s.opFields = nil
	hermitianPart(s.accum, s.radius)
	s.batch.InverseRealBanded(planes[0], s.accum, s.radius)
	s.opGrad = grad
	s.eng.ForChunk(len(grad.Data), s.applyBody)
	s.opGrad = nil
}

// ForwardCorners fills every corner's requested images and, given a
// target, its cost, from one pass over all corners; see Corner.
func (s *Simulator) ForwardCorners(maskSpec *grid.CField, target *grid.Field, corners []Corner) {
	start := time.Now()
	s.simulate(maskSpec, target, corners)
	d := time.Since(start)
	mForwardNS.Observe(float64(d))
	s.trace("forward", corners, d)
}

// ForwardAndGradientCorners runs the exact forward model for every
// corner in one pass, sets each corner's requested images and its cost,
// and sets grad to Σ_c w_c·∂‖R_c−target‖²/∂M (Eq. 11) with one adjoint
// over all banks and one full-grid gradient inverse. grad's old values
// are not read: each pixel is written as 0 + x, the bits of an add into
// a cleared field, so a −0 lands as +0. The adjoint is linear in the
// resist sensitivity, so each corner's weight is folded into its bank's
// W.
func (s *Simulator) ForwardAndGradientCorners(grad *grid.Field, maskSpec *grid.CField, target *grid.Field, corners []Corner) {
	start := time.Now()
	s.simulate(maskSpec, target, corners)
	s.adjoint(grad)
	d := time.Since(start)
	mFusedNS.Observe(float64(d))
	s.trace("forward_gradient", corners, d)
}

// ForwardAndGradient is the one-corner ForwardAndGradientCorners: it
// runs the exact forward model at cond, fills out with the aerial and
// sigmoid resist images, sets grad to weight·∂‖R−target‖²/∂M (Eq. 11)
// without reading it, and returns the corner cost ‖R−target‖².
func (s *Simulator) ForwardAndGradient(grad *grid.Field, maskSpec *grid.CField, cond Condition, target *grid.Field, out *CornerImages, weight float64) float64 {
	corners := [1]Corner{{Cond: cond, Weight: weight, Out: out}}
	s.ForwardAndGradientCorners(grad, maskSpec, target, corners[:])
	return corners[0].Cost
}

// trace reports one simulate span over a corner set to the attached
// sink; the event's Corner names the set ("nominal+outer+inner").
func (s *Simulator) trace(name string, corners []Corner, d time.Duration) {
	if s.sink == nil {
		return
	}
	s.sink.Emit(obs.Event{
		Type:   obs.EventCorner,
		Trace:  s.traceID,
		Name:   name,
		Engine: s.eng.Name(),
		Corner: cornerLabel(corners),
		N:      s.cfg.Optics.GridSize,
		DurNS:  d.Nanoseconds(),
	})
}

// cornerLabel names a corner set in trace events: its conditions joined
// by "+".
func cornerLabel(corners []Corner) string {
	names := make([]string, len(corners))
	for i, c := range corners {
		names[i] = c.Cond.String()
	}
	return strings.Join(names, "+")
}
