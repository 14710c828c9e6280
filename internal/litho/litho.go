// Package litho implements the forward lithography model of the paper's
// §II: the Hopkins/SOCS aerial image (Eq. 1), the constant-threshold
// resist (Eq. 2) and its differentiable sigmoid relaxation (Eq. 8), and
// the three process-window corners used by the PV-band cost (nominal;
// outer = nominal focus at +2 % dose; inner = defocus at −2 % dose).
//
// It also implements the adjoint (gradient) of the image-fidelity cost
// ‖R − R*‖² with respect to the mask (Eq. 11), accumulated in the
// frequency domain so each kernel costs one extra FFT.
//
// The per-kernel fields and their adjoint products are computed on the
// reduced grid, the smallest power-of-two grid that holds the pupil's
// band exactly (reduced.go); only three band-pruned transforms per call
// run on the full simulation grid: two real-output inverses (the aerial
// upsample and the gradient) and one real-input forward (the
// sensitivity's low-pass).
//
// Any set of corners runs as one pass on the session's engine
// (ForwardCorners, ForwardAndGradientCorners, corners.go): all banks'
// kernel fields in one reduced-grid batch, one resist sweep over every
// corner, and one adjoint with one full-grid gradient inverse. Corners
// that share a focus setting (nominal and outer) share their coherent
// fields and their resist sensitivity.
package litho

import (
	"fmt"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
	"lsopc/internal/optics"
	"lsopc/internal/rt"
)

// Per-call simulate timings in the default registry: forward-only calls
// and forward-and-gradient calls.
var (
	mForwardNS = obs.Default.Histogram("litho.forward_ns", obs.DurationBounds)
	mFusedNS   = obs.Default.Histogram("litho.forward_gradient_ns", obs.DurationBounds)
)

// Condition identifies one process corner.
type Condition int

const (
	// Nominal is the reference condition: best focus, 100 % dose.
	Nominal Condition = iota
	// Outer produces the outermost printed contour: best focus, +dose.
	Outer
	// Inner produces the innermost printed contour: defocus, −dose.
	Inner
	numConditions
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case Nominal:
		return "nominal"
	case Outer:
		return "outer"
	case Inner:
		return "inner"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// AllConditions lists the three process corners in a stable order.
var AllConditions = []Condition{Nominal, Outer, Inner}

// Config parameterises the simulator.
type Config struct {
	Optics    optics.Config
	Threshold float64 // resist intensity threshold I_th (contest: 0.225)
	Steepness float64 // sigmoid steepness s (Eq. 8)
	DefocusNM float64 // focus excursion for the inner corner (contest: 25)
	DoseVar   float64 // fractional dose excursion (contest: 0.02)
}

// DefaultConfig returns the ICCAD 2013 contest parameters at the given
// simulation grid resolution.
func DefaultConfig(gridSize int, pixelNM float64) Config {
	return Config{
		Optics:    optics.Default(gridSize, pixelNM),
		Threshold: 0.225,
		Steepness: 50,
		DefocusNM: 25,
		DoseVar:   0.02,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Optics.Validate(); err != nil {
		return err
	}
	switch {
	case c.Threshold <= 0 || c.Threshold >= 1:
		return fmt.Errorf("litho: threshold must be in (0,1), got %g", c.Threshold)
	case c.Steepness <= 0:
		return fmt.Errorf("litho: steepness must be positive, got %g", c.Steepness)
	case c.DefocusNM < 0:
		return fmt.Errorf("litho: defocus must be non-negative, got %g", c.DefocusNM)
	case c.DoseVar < 0 || c.DoseVar >= 1:
		return fmt.Errorf("litho: dose variation must be in [0,1), got %g", c.DoseVar)
	}
	return nil
}

// Simulator evaluates the forward imaging model and its adjoint. A
// Simulator is a *session* over an immutable rt.Bank: the kernel banks,
// 1-D FFT plans and derived read-only fields are shared with every other
// session on the same bank, while the mutable scratch (coherent-field
// batches, accumulators, plan workspaces) is leased from the bank's pool
// and returned by Release. One session owns its scratch exclusively and
// is NOT safe for concurrent use; create one per goroutine via
// NewSession.
type Simulator struct {
	cfg  Config
	eng  *engine.Engine
	res  *rt.Bank // shared immutable resources
	pool *rt.Pool // == res.Pool(); where all scratch below is leased from

	batch *fft.BatchPlan2D

	// The reduced SOCS grid (see reduced.go): the per-kernel fields are
	// m×m, with m ≤ N. small is the batched plan on that grid (batch
	// itself when m == N); rescale = (m/N)² is the exact power-of-two
	// sample scale between the grids; radius is the kernel box radius
	// both derive from.
	m       int
	radius  int
	rescale float64
	small   *fft.BatchPlan2D

	nominalBank *optics.Bank // focus = 0 (aliases res.Nominal())
	defocusBank *optics.Bank // focus = DefocusNM (aliases res.Defocus())

	// Leased scratch, reused across calls and returned by Release.
	accum     *grid.CField    // gradient accumulator; full-grid transform scratch
	fields    []*grid.CField  // per-kernel m×m fields E_k (see kernelFields)
	single    [1]*grid.CField // reusable singleton for banded one-field transforms
	aerialOut CornerImages    // Aerial's output, held here so calls do not allocate
	plane     []*grid.Field   // per bank: aerial, then W, then the gradient (see planes)

	// m×m scratch of the reduced path; nil when m == N.
	smallReal *grid.Field   // SOCS image Σ μ_k|E_k|²
	smallSpec *grid.CField  // its spectrum, and the low-passed W's
	lowW      []*grid.Field // per bank: W's band-2r samples (see adjoint)

	batchScratch *grid.CField // backs batch's per-worker column buffers
	smallScratch *grid.CField // backs small's column buffers; nil when m == N

	// The staged corner set of the current call (corners.go): its
	// distinct banks, each corner's bank index, one batch slot per
	// kernel, and the resist sweep's per-chunk cost partials and
	// per-worker σ buffers and cost-pass operands.
	staged       []Corner
	banks        []*optics.Bank
	cornerBank   []int
	slots        []kernelSlot
	partials     []float64
	sweepBuf     [][]float64
	sweepCorners [][]costCorner

	// Per-call operands staged for the pre-bound engine bodies below.
	// Binding the closures once per session keeps the simulate/gradient
	// hot paths free of closure allocations (engine bodies escape).
	opFields []*grid.CField
	opBank   *optics.Bank
	opSpec   *grid.CField
	opDst    *grid.Field
	opWs     []*grid.Field // per bank: the W the adjoint multiplies
	opTarget *grid.Field
	opGrad   *grid.Field
	opBand   int             // copyBand's and accumBody's row band
	opCopy   [2]*grid.CField // copyBand's destination and source

	materializeBody func(lo, hi int)
	reduceBody      func(lo, hi int)
	adjointBody     func(lo, hi int)
	applyBody       func(lo, hi int)
	accumBody       func(lo, hi int)
	copyBody        func(lo, hi int)
	sweepBody       func(worker, chunk int)

	// Optional trace sink for per-corner timing events. nil keeps the
	// hot paths at a single nil check; set via SetSink.
	sink    obs.Sink
	traceID string

	released bool
}

// NewSimulator builds a simulator session on the process-wide shared
// resource bank for cfg, synthesising the kernel banks on first use.
// Repeated construction at one preset reuses the same bank and recycled
// scratch, so a simulator per job is cheap.
func NewSimulator(cfg Config, eng *engine.Engine) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = engine.CPU()
	}
	res, err := rt.BankFor(cfg.Optics, cfg.DefocusNM, eng)
	if err != nil {
		return nil, err
	}
	return NewSession(res, cfg, eng)
}

// NewSession builds a simulator session over an existing resource bank:
// the immutable kernel banks and FFT plans come from res, every piece of
// mutable scratch is leased from res.Pool(). Call Release when the
// session's work is done to return the scratch for reuse.
func NewSession(res *rt.Bank, cfg Config, eng *engine.Engine) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("litho: session requires a resource bank")
	}
	if eng == nil {
		eng = engine.CPU()
	}
	n := cfg.Optics.GridSize
	if res.GridSize() != n {
		return nil, fmt.Errorf("litho: bank grid does not match config grid %d", n)
	}
	pool := res.Pool()
	s := &Simulator{
		cfg:          cfg,
		eng:          eng,
		res:          res,
		pool:         pool,
		nominalBank:  res.Nominal(),
		defocusBank:  res.Defocus(),
		accum:        pool.CField(n, n),
		radius:       res.Radius(),
		sweepBuf:     make([][]float64, eng.Workers()),
		sweepCorners: make([][]costCorner, eng.Workers()),
	}
	// Plan workspaces are leased as complex fields of exactly the
	// required element count so they recycle like any other buffer.
	s.batchScratch = pool.CField(n, fft.BatchScratchLen(n, eng.Workers())/n)
	s.batch = fft.NewBatchPlan2DFromPlans(res.Plan(), res.Plan(), eng, s.batchScratch.Data)
	s.m = reducedGrid(n, s.radius)
	s.rescale = float64(s.m*s.m) / float64(n*n)
	s.small = s.batch
	if m := s.m; m < n {
		s.smallScratch = pool.CField(m, fft.BatchScratchLen(m, eng.Workers())/m)
		s.small = fft.NewBatchPlan2DFromPlans(fft.CachedPlan(m), fft.CachedPlan(m), eng, s.smallScratch.Data)
		s.smallReal = pool.Field(m, m)
		s.smallSpec = pool.CField(m, m)
	}
	s.bindBodies()
	return s, nil
}

// bindBodies creates the engine bodies once per session; the hot-path
// methods stage their operands in the op* fields and reuse these.
func (s *Simulator) bindBodies() {
	s.materializeBody = func(lo, hi int) {
		fields, spec := s.opFields, s.opSpec
		for i := lo; i < hi; i++ {
			sl := s.slots[i]
			s.banks[sl.bank].Kernels[sl.k].MulIntoBand(fields[i], spec)
		}
	}
	s.reduceBody = func(lo, hi int) {
		fields, kernels := s.opFields, s.opBank.Kernels
		d := s.opDst.Data[lo:hi]
		clear(d)
		for ki := range fields {
			reduce(d, fields[ki].Data[lo:hi], kernels[ki].Weight)
		}
	}
	s.adjointBody = func(lo, hi int) {
		fields := s.opFields
		nn := s.m * s.m
		for i := lo; i < hi; {
			ki, j := i/nn, i%nn
			n := min(nn-j, hi-i)
			adjointProduct(fields[ki].Data[j:j+n], s.opWs[s.slots[ki].bank].Data[j:j+n])
			i += n
		}
	}
	s.applyBody = func(lo, hi int) {
		setInto(s.opGrad.Data[lo:hi], s.plane[0].Data[lo:hi])
	}
	s.accumBody = func(lo, hi int) {
		n, fields := s.GridSize(), s.opFields
		for r := lo; r < hi; r++ {
			v := bandRow(r, s.opBand)
			row := (v + n) % n
			clear(s.accum.Data[row*n : (row+1)*n])
			for i, sl := range s.slots {
				k := s.banks[sl.bank].Kernels[sl.k]
				k.AccumFlipMulRow(s.accum, fields[i], complex(k.Weight, 0), v)
			}
		}
	}
	s.copyBody = func(lo, hi int) {
		for r := lo; r < hi; r++ {
			copyBandRow(s.opCopy[0], s.opCopy[1], bandRow(r, s.opBand), s.opBand, s.rescale)
		}
	}
	s.sweepBody = s.sweepChunk
}

// SetSink attaches a trace sink to the session: Forward,
// ForwardAndGradient and the corner-set calls then emit one timing
// event per call, tagged with traceID so traces from concurrent
// sessions stay distinguishable. Pass nil to detach (the default); the
// disabled path costs one nil check per call and never allocates.
func (s *Simulator) SetSink(sink obs.Sink, traceID string) {
	s.sink = sink
	s.traceID = traceID
}

// TraceSink returns the sink and trace id set with SetSink: the trace
// context every optimizer run on this session emits under.
func (s *Simulator) TraceSink() (obs.Sink, string) { return s.sink, s.traceID }

// Release returns every leased scratch buffer to the bank's pool. The
// simulator must not be used afterwards. Release is idempotent and
// nil-safe; shared bank resources are untouched.
func (s *Simulator) Release() {
	if s == nil || s.released {
		return
	}
	s.released = true
	p := s.pool
	p.PutCField(s.accum)
	for _, f := range s.fields {
		p.PutCField(f)
	}
	for _, f := range s.plane {
		p.PutField(f)
	}
	for _, f := range s.lowW {
		p.PutField(f)
	}
	p.PutField(s.smallReal)
	p.PutCField(s.smallSpec)
	p.PutCField(s.batchScratch)
	p.PutCField(s.smallScratch)
	s.accum = nil
	s.fields, s.plane, s.lowW = nil, nil, nil
	s.single[0] = nil
	s.smallReal, s.smallSpec = nil, nil
	s.batchScratch, s.smallScratch = nil, nil
	s.batch, s.small = nil, nil
	s.staged, s.banks, s.opBank = nil, nil, nil
}

// Resources returns the immutable resource bank backing this session.
func (s *Simulator) Resources() *rt.Bank { return s.res }

// Pool returns the pool this session leases scratch from.
func (s *Simulator) Pool() *rt.Pool { return s.pool }

// Config returns the simulator configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Engine returns the simulator's execution engine.
func (s *Simulator) Engine() *engine.Engine { return s.eng }

// GridSize returns the simulation grid edge in pixels.
func (s *Simulator) GridSize() int { return s.cfg.Optics.GridSize }

// PixelNM returns the pixel pitch in nm.
func (s *Simulator) PixelNM() float64 { return s.cfg.Optics.PixelNM }

// Bank returns the kernel bank for the given condition's focus setting.
func (s *Simulator) Bank(c Condition) *optics.Bank {
	if c == Inner {
		return s.defocusBank
	}
	return s.nominalBank
}

// Dose returns the multiplicative dose factor for the condition.
func (s *Simulator) Dose(c Condition) float64 {
	switch c {
	case Outer:
		return 1 + s.cfg.DoseVar
	case Inner:
		return 1 - s.cfg.DoseVar
	default:
		return 1
	}
}

// MaskSpectrum computes FFT(mask) into a new complex field. Call once
// per mask update and share the spectrum across corners and gradient
// passes.
func (s *Simulator) MaskSpectrum(mask *grid.Field) *grid.CField {
	c := grid.NewCField(mask.W, mask.H)
	c.SetReal(mask)
	s.single[0] = c
	s.batch.BatchForward(s.single[:])
	s.single[0] = nil
	return c
}

// MaskSpectrumInto computes FFT(mask) into dst using the real-input
// fast path (the mask is always real), pruned to the kernel band: the
// bins |u|, |v| ≤ r every simulate call reads are exact, and the columns
// outside |u| ≤ r hold intermediates that must not be read. Use
// MaskSpectrum for a full spectrum.
func (s *Simulator) MaskSpectrumInto(dst *grid.CField, mask *grid.Field) {
	s.batch.ForwardReal(dst, mask, s.radius)
}

// reduceAbsSq reduces the SOCS sum dst = Σ_k μ_k |E_k|² over the batch
// of coherent fields. The reduction is partitioned over pixels; within
// each pixel the kernels are summed in ascending k order, so the result
// is bit-identical for any worker count (and to the serial per-kernel
// AccumAbsSq loop).
func (s *Simulator) reduceAbsSq(dst *grid.Field, fields []*grid.CField, bank *optics.Bank) {
	s.opDst, s.opFields, s.opBank = dst, fields, bank
	s.eng.ForChunk(len(dst.Data), s.reduceBody)
	s.opDst, s.opFields = nil, nil
}

// Aerial computes the dose-scaled aerial image (Eq. 1) for the given
// corner into dst: dst = dose · Σ_k μ_k |h_k ⊗ M|².
func (s *Simulator) Aerial(dst *grid.Field, maskSpec *grid.CField, cond Condition) {
	s.aerialOut.Aerial = dst
	corners := [1]Corner{{Cond: cond, Out: &s.aerialOut}}
	s.simulate(maskSpec, nil, corners[:])
	s.aerialOut.Aerial = nil
}

// focusBank returns the kernel bank at the given defocus: the session's
// own banks at best focus and at DefocusNM, otherwise the process-wide
// memoized bank for the session's optics (synthesised on first use).
func (s *Simulator) focusBank(defocusNM float64) (*optics.Bank, error) {
	switch defocusNM {
	case s.nominalBank.DefocusNM:
		return s.nominalBank, nil
	case s.defocusBank.DefocusNM:
		return s.defocusBank, nil
	}
	return rt.OpticsBankFor(s.cfg.Optics, defocusNM, s.eng)
}

// AerialAtFocus computes the unit-dose aerial image at the given defocus
// into dst, dst = Σ_k μ_k |h_k ⊗ M|² through focusBank(defocusNM), on
// the same SOCS path as Aerial: at best focus and at DefocusNM it is
// bit-identical to Aerial(Nominal) and to Aerial(Inner) before its dose
// scale. A dose d prints where d·dst ≥ Threshold.
func (s *Simulator) AerialAtFocus(dst *grid.Field, maskSpec *grid.CField, defocusNM float64) error {
	bank, err := s.focusBank(defocusNM)
	if err != nil {
		return err
	}
	s.banks = append(s.banks[:0], bank)
	s.stageSlots()
	dsts := [1]*grid.Field{dst}
	s.socs(dsts[:], maskSpec)
	return nil
}

// AerialFast computes the Eq. 17 fused-kernel approximation of the
// aerial image: dst = dose · |(Σ_k μ_k h_k) ⊗ M|². One convolution
// instead of K; exact only for a coherent (K = 1) system. This is the
// fast path the paper's GPU scheme precomputes.
func (s *Simulator) AerialFast(dst *grid.Field, maskSpec *grid.CField, cond Condition) {
	bank := s.Bank(cond)
	bank.Combined.MulIntoBand(s.accum, maskSpec)
	s.single[0] = s.accum
	s.batch.BatchInverseBanded(s.single[:], bank.Combined.R)
	s.accum.AbsSqInto(dst)
	if dose := s.Dose(cond); dose != 1 {
		dst.Scale(dst, dose)
	}
}

// ResistBinary applies the hard-threshold resist model (Eq. 2).
func (s *Simulator) ResistBinary(dst, aerial *grid.Field) {
	dst.Threshold(aerial, s.cfg.Threshold)
}

// PrintedBinary runs the full forward model (exact aerial + threshold
// resist) for the corner, the configuration used by the metric checkers.
func (s *Simulator) PrintedBinary(dst *grid.Field, maskSpec *grid.CField, cond Condition) {
	s.Aerial(dst, maskSpec, cond)
	s.ResistBinary(dst, dst)
}

// CornerImages bundles the forward results of one process corner. The
// corner-set calls write only the non-nil fields.
type CornerImages struct {
	Aerial *grid.Field // dose-scaled intensity
	R      *grid.Field // sigmoid resist image
}

// NewCornerImages allocates result storage for an n×n simulator grid.
func NewCornerImages(n int) *CornerImages {
	return &CornerImages{Aerial: grid.NewField(n, n), R: grid.NewField(n, n)}
}

// Forward fills out with the exact aerial image and, when out.R is
// non-nil, the sigmoid resist image at the given corner: the one-corner
// ForwardCorners.
func (s *Simulator) Forward(out *CornerImages, maskSpec *grid.CField, cond Condition) {
	corners := [1]Corner{{Cond: cond, Out: out}}
	s.ForwardCorners(maskSpec, nil, corners[:])
}

// CostAt returns ‖R − target‖² for the sigmoid resist image r, summed
// per chunk of sweepRows rows and then over the chunks in order: the
// value the corner-set calls report as a corner's Cost.
func CostAt(r, target *grid.Field) float64 {
	var total float64
	step := sweepRows * r.W
	for lo := 0; lo < len(r.Data); lo += step {
		var sum float64
		for i := lo; i < min(lo+step, len(r.Data)); i++ {
			d := r.Data[i] - target.Data[i]
			sum += d * d
		}
		total += sum
	}
	return total
}
