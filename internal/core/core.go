// Package core implements the paper's contribution: level-set based
// inverse lithography with the process-variation-aware cost function and
// Polak–Ribière–Polyak conjugate-gradient contour evolution
// (Algorithm 1 of the paper).
//
// Per iteration the optimizer:
//  1. extracts the binary mask from the level-set function ψ (Eq. 6),
//  2. simulates the three process corners in one pass on the session's
//     engine — nominal and outer share one best-focus SOCS pass, inner
//     runs the defocused bank — and accumulates the total cost gradient
//     G = G_nom + w_pvb·(G_outer + G_inner) (Eqs. 11–14) through one
//     adjoint,
//  3. forms the evolution velocity v = −G·|∇ψ| + λ^PRP·v_prev
//     (Eqs. 10, 15, 16),
//  4. advances ψ by a CFL-limited step Δt = λ_t / max|v| (lines 5–6),
//  5. periodically reinitialises ψ to a signed distance function.
//
// The loop stops after MaxIter iterations or when max|v| ≤ ε.
package core

import (
	"fmt"
	"math"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/rt"
	"lsopc/internal/solve"
)

// methodName tags this optimizer's checkpoints and cancellation events.
const methodName = "level-set"

// Algorithm 1's fixed constants.
const (
	// lambdaT scales the CFL time step: Δt = λ_t / max|v|, i.e. the
	// contour moves at most λ_t pixels per iteration.
	lambdaT = 2
	// reinitEvery is the reinitialisation period: ψ is reset to a
	// signed distance function every reinitEvery iterations.
	reinitEvery = 10
)

// Optimizer-loop metrics in the default registry.
var (
	mIterations = obs.Default.Counter("core.iterations")
	mStepNS     = obs.Default.Histogram("core.step_ns", obs.DurationBounds)
)

// Options configures the optimizer. DefaultOptions gives the paper's
// configuration; UseCG off is the plain gradient-descent ablation.
type Options struct {
	// MaxIter is the iteration budget N of Algorithm 1.
	MaxIter int
	// Tolerance is the velocity stopping threshold ε.
	Tolerance float64
	// PVBWeight is w_pvb, the weight of the process-variation cost
	// (Eq. 13). Zero optimizes nominal fidelity only.
	PVBWeight float64
	// UseCG enables the PRP conjugate-gradient velocity (Eqs. 15–16);
	// disabled it degenerates to steepest descent, the ablation the
	// paper's contribution (ii) is measured against.
	UseCG bool
	// SnapshotEvery records a mask snapshot every that many iterations
	// (0 disables), feeding the Fig. 2 evolution views.
	SnapshotEvery int
	// AdaptiveStep implements Algorithm 1's "choose a proper time step"
	// (line 5) with feedback: when an iteration raises the cost the step
	// scale λ_t is halved, and it recovers slowly on success. Disabled,
	// λ_t stays fixed.
	AdaptiveStep bool
	// LineSearch evaluates the true cost at {½, 1, 2}× the CFL step and
	// advances with the best candidate — the "optimal time step" idea of
	// Lv et al. (the paper's reference [9]). Each iteration costs two
	// extra forward simulations per corner.
	LineSearch bool
	// InitialMask seeds ψ₀ from this mask instead of the target —
	// e.g. a rule-based OPC output (hybrid flow) or a previous node's
	// solution. Must match the grid; nil uses the target (Algorithm 1,
	// line 1).
	InitialMask *grid.Field
	// InitialPsi seeds the level-set function directly, bypassing the
	// signed-distance initialisation — used by the coarse-to-fine driver
	// to hand an upsampled, redistanced ψ to the next level. Takes
	// precedence over InitialMask. The field is cloned; the caller keeps
	// ownership.
	InitialPsi *grid.Field
	// MultiResFactor > 1 enables coarse-to-fine evolution (see Run):
	// the run starts on a grid downsampled by this power-of-two factor,
	// halving the factor each level until full resolution, the coarse
	// levels sharing MaxIter/2 evenly. 0 or 1 runs single-resolution.
	MultiResFactor int
	// IterOffset shifts the iteration numbers reported in History,
	// snapshots, trace events and watchdog verdicts — the coarse-to-fine
	// driver uses it to keep one globally contiguous iteration axis
	// across levels. Plain runs leave it 0.
	IterOffset int
	// Health enables the numerical-health watchdog: each iteration's
	// cost, gradient norm and time step are judged against the policy,
	// unhealthy iterations emit a typed health event to the simulator's
	// trace sink (litho.Simulator.SetSink), and with
	// AbortOnUnhealthy the run stops early (Outcome.Aborted/AbortReason).
	// nil disables the watchdog entirely.
	Health *obs.HealthPolicy
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		MaxIter:      50,
		Tolerance:    1e-6,
		PVBWeight:    0.6,
		UseCG:        true,
		AdaptiveStep: true,
	}
}

// Validate checks option sanity. NaN and ±Inf are rejected up front:
// every ordered comparison below is false for NaN, so a non-finite
// value would otherwise slip through.
func (o Options) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Tolerance", o.Tolerance},
		{"PVBWeight", o.PVBWeight},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case o.MaxIter < 1:
		return fmt.Errorf("core: MaxIter must be ≥ 1, got %d", o.MaxIter)
	case o.Tolerance < 0:
		return fmt.Errorf("core: Tolerance must be ≥ 0, got %g", o.Tolerance)
	case o.PVBWeight < 0:
		return fmt.Errorf("core: PVBWeight must be ≥ 0, got %g", o.PVBWeight)
	case o.SnapshotEvery < 0:
		return fmt.Errorf("core: SnapshotEvery must be ≥ 0, got %d", o.SnapshotEvery)
	case o.MultiResFactor < 0:
		return fmt.Errorf("core: MultiResFactor must be ≥ 0, got %d", o.MultiResFactor)
	case o.MultiResFactor > 1 && !grid.IsPow2(o.MultiResFactor):
		return fmt.Errorf("core: MultiResFactor must be a power of two, got %d", o.MultiResFactor)
	case o.IterOffset < 0:
		return fmt.Errorf("core: IterOffset must be ≥ 0, got %d", o.IterOffset)
	}
	return nil
}

// Optimizer runs level-set ILT for one target. Not safe for concurrent
// use (it owns the simulator's scratch). All of its working memory is
// leased from the simulator's pool at construction and returned by
// Release, and the per-iteration engine tasks are bound once, so the
// steady-state iteration allocates nothing.
type Optimizer struct {
	sim    *litho.Simulator
	target *grid.Field
	opts   Options
	pool   *rt.Pool
	// keepBest tracks the lowest-cost iterate and returns it instead of
	// the last one, which de-noises the pixel-quantised contour updates.
	keepBest bool
	// corners are the simulated process corners, indexed by
	// litho.Condition: nominal (weight 1), then outer and inner
	// (weight w_pvb) when the PV-band cost is active. One litho call
	// simulates all of them; they request no images, only costs.
	corners []litho.Corner

	// The level-set tail (tail.go): engine bodies, the fixed chunking
	// and its per-chunk partials, the staged operands, and the sums the
	// velocity sweeps leave for StepSize and GradNorm.
	gradBody, velocityBody         func(lo, hi int)
	maskBody, evolveBody, saveBody func(lo, hi int)
	tailChunks                     int
	partials                       []float64
	opWithPrev                     bool
	opLambda, opDt                 float64
	opPsi                          *grid.Field
	gNorm2, maxV                   float64
	edt                            *levelset.EDT // ψ₀ and the reinitialisation

	// Leased run scratch, returned by Release.
	mask      *grid.Field
	maskSpec  *grid.CField
	grad      *grid.Field // G_i (Eq. 14)
	gTerm     *grid.Field // g_i = G_i·|∇ψ_i|, |∇ψ_i| before the product
	gPrev     *grid.Field // g_{i-1}; swapped with gTerm each iteration
	velocity  *grid.Field // v_i
	psiCand   *grid.Field // nil unless LineSearch
	bestPsi   *grid.Field // nil unless keepBest; its mask is MaskFromPsi's
	reinit    *grid.Field
	reinitTmp *grid.Field // scratch of ReinitializeInto

	// Per-run state reset by start; the iteration-loop bookkeeping
	// (step scale, best cost, history, watchdog) lives in the
	// solve.Driver built per run.
	psi *grid.Field // level-set function

	released bool
}

// ErrShapeMismatch is returned when the target, an initial mask or ψ,
// or a checkpoint field does not match the simulator grid.
var ErrShapeMismatch = solve.ErrShapeMismatch

// newOptimizer builds an optimizer for the given simulator and target
// image (the rasterised design, 1 inside pattern). The target must match
// the simulator grid. keepBest returns the lowest-cost iterate instead
// of the last one.
func newOptimizer(sim *litho.Simulator, target *grid.Field, opts Options, keepBest bool) (*Optimizer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := sim.GridSize()
	if target.W != n || target.H != n {
		return nil, fmt.Errorf("%w: target %dx%d, grid %d", ErrShapeMismatch, target.W, target.H, n)
	}
	o := &Optimizer{sim: sim, target: target, opts: opts, pool: sim.Pool(), keepBest: keepBest}
	pool := o.pool
	o.corners = []litho.Corner{{Cond: litho.Nominal, Weight: 1}}
	if opts.PVBWeight > 0 {
		o.corners = append(o.corners,
			litho.Corner{Cond: litho.Outer, Weight: opts.PVBWeight},
			litho.Corner{Cond: litho.Inner, Weight: opts.PVBWeight})
	}
	o.psi = pool.Field(n, n)
	o.mask = pool.Field(n, n)
	o.maskSpec = pool.CField(n, n)
	o.grad = pool.Field(n, n)
	o.gTerm = pool.Field(n, n)
	o.gPrev = pool.Field(n, n)
	o.velocity = pool.Field(n, n)
	if opts.LineSearch {
		o.psiCand = pool.Field(n, n)
	}
	if keepBest {
		o.bestPsi = pool.Field(n, n)
	}
	o.edt = levelset.NewEDT(n, n, sim.Engine())
	o.reinit = pool.Field(n, n)
	o.reinitTmp = pool.Field(n, n)
	o.bindTail()
	return o, nil
}

// Release returns the optimizer's leased scratch to the pool. The
// simulator passed to newOptimizer is caller-owned and not touched.
// Results already returned remain valid: they own their fields. Release
// is idempotent and nil-safe.
func (o *Optimizer) Release() {
	if o == nil || o.released {
		return
	}
	o.released = true
	pool := o.pool
	o.corners = nil
	o.gradBody, o.velocityBody = nil, nil
	o.maskBody, o.evolveBody, o.saveBody = nil, nil, nil
	o.partials, o.edt = nil, nil
	pool.PutField(o.psi)
	pool.PutField(o.mask)
	pool.PutCField(o.maskSpec)
	for _, f := range []*grid.Field{o.grad, o.gTerm, o.gPrev, o.velocity, o.psiCand, o.bestPsi, o.reinit, o.reinitTmp} {
		pool.PutField(f)
	}
	o.mask, o.maskSpec = nil, nil
	o.grad, o.gTerm, o.gPrev, o.velocity = nil, nil, nil, nil
	o.psiCand, o.bestPsi, o.psi = nil, nil, nil
	o.reinit, o.reinitTmp = nil, nil
}

// driver starts a fresh run (ψ initialisation) and wraps the optimizer
// in the shared solve runtime that owns the iteration bookkeeping.
func (o *Optimizer) driver() (*solve.Driver, error) {
	if err := o.start(); err != nil {
		return nil, err
	}
	sink, trace := o.sim.TraceSink()
	return solve.NewDriver((*levelStepper)(o), solve.Config{
		Method:        methodName,
		MaxIter:       o.opts.MaxIter,
		Offset:        o.opts.IterOffset,
		Tolerance:     o.opts.Tolerance,
		AdaptiveStep:  o.opts.AdaptiveStep,
		BaseScale:     lambdaT,
		KeepBest:      o.keepBest,
		SnapshotEvery: o.opts.SnapshotEvery,
		Sink:          sink,
		Trace:         trace,
		Engine:        o.sim.Engine().Name(),
		Health:        o.opts.Health,
		Observe:       observeStep,
	}), nil
}

// observeStep feeds the per-iteration metrics at the same measurement
// point the pre-driver loop used.
func observeStep(d time.Duration) {
	mIterations.Inc()
	mStepNS.Observe(float64(d))
}

// start initialises the run state (Algorithm 1, line 1): M₀ = R* (or
// the supplied warm start), ψ₀ = signed distance of M₀, computed on the
// optimizer's engine (the EDT gives the same bits on every engine).
func (o *Optimizer) start() error {
	n := o.sim.GridSize()
	m0 := o.target
	switch {
	case o.opts.InitialPsi != nil:
		if o.opts.InitialPsi.W != n || o.opts.InitialPsi.H != n {
			return fmt.Errorf("%w: initial psi %dx%d, grid %d",
				ErrShapeMismatch, o.opts.InitialPsi.W, o.opts.InitialPsi.H, n)
		}
		o.psi.CopyFrom(o.opts.InitialPsi)
		return nil
	case o.opts.InitialMask != nil:
		if o.opts.InitialMask.W != n || o.opts.InitialMask.H != n {
			return fmt.Errorf("%w: initial mask %dx%d, grid %d",
				ErrShapeMismatch, o.opts.InitialMask.W, o.opts.InitialMask.H, n)
		}
		m0 = o.opts.InitialMask
	}
	// o.grad is free scratch here: simulate overwrites it.
	o.edt.SignedDistanceInto(o.psi, o.grad, m0)
	return nil
}

// lineSearchFactors are the step multiples probed by Options.LineSearch.
var lineSearchFactors = [3]float64{0.5, 1, 2}

// levelStepper is the Optimizer viewed through the solve.Stepper
// contract: Eval computes the PRP velocity from a fresh simulation,
// Advance applies the CFL step (with optional line search and periodic
// reinitialisation), and SaveState/RestoreState serialize the level-set
// state for checkpoints. Defined as a type conversion of Optimizer so
// the methods stay allocation-free.
type levelStepper Optimizer

// Eval runs lines 7–8 of Algorithm 1 for local iteration i: extract
// mask, simulate the corners, accumulate the gradient, and form the
// evolution velocity (with the PRP momentum term of Eqs. 15–16 when CG
// is enabled). All scratch lives on the optimizer and every engine task
// is pre-bound, so a steady-state call allocates nothing.
func (s *levelStepper) Eval(i int) solve.Stats {
	o := (*Optimizer)(s)
	o.maskFromPsi(o.psi)
	costNom, costPVB := o.simulate()
	lambda := o.velocityFromGradient(o.opts.UseCG && i > 0)
	return solve.Stats{
		Cost:        costNom + o.opts.PVBWeight*costPVB,
		CostNominal: costNom,
		CostPVB:     costPVB,
		LambdaPRP:   lambda,
		Detailed:    true,
	}
}

// simulate runs the corner simulations for the current mask and leaves
// the gradient of the composed objective, ∂/∂M [nominal + w_pvb·(outer
// + inner)], in o.grad. It returns the nominal cost and the summed
// outer and inner costs.
func (o *Optimizer) simulate() (costNom, costPVB float64) {
	o.sim.MaskSpectrumInto(o.maskSpec, o.mask)
	o.sim.ForwardAndGradientCorners(o.grad, o.maskSpec, o.target, o.corners)
	return o.costs()
}

// costs returns the nominal cost and the summed outer and inner costs
// of the latest corner simulation (0 without the PV-band cost).
func (o *Optimizer) costs() (costNom, costPVB float64) {
	c := o.corners
	if len(c) == 1 {
		return c[litho.Nominal].Cost, 0
	}
	return c[litho.Nominal].Cost, c[litho.Outer].Cost + c[litho.Inner].Cost
}

// SaveBest copies the current ψ into the keep-best store. solve's Step
// calls it between Eval and Advance, so the iterate's mask is
// MaskFromPsi of the stored ψ.
func (s *levelStepper) SaveBest() {
	o := (*Optimizer)(s)
	o.sim.Engine().ForChunk(len(o.psi.Data), o.saveBody)
}

// StepSize returns the CFL time step under the driver's λ_t scale and
// the velocity's max abs entry (the convergence statistic, line 12),
// both from the max|v| Eval's velocity sweep left.
func (s *levelStepper) StepSize(scale float64) (dt, maxV float64) {
	o := (*Optimizer)(s)
	return levelset.TimeStep(scale, o.maxV), o.maxV
}

// GradNorm returns ‖g‖ for tracing and health verdicts, from the ‖g‖²
// Eval's gradient sweep left.
func (s *levelStepper) GradNorm() float64 {
	return math.Sqrt((*Optimizer)(s).gNorm2)
}

// Advance applies lines 5–6 of Algorithm 1: optional exact line search
// over the step size, the level-set update, and the periodic
// reinitialisation that keeps ψ a signed distance function.
func (s *levelStepper) Advance(i int, dt float64) float64 {
	o := (*Optimizer)(s)
	// Optional exact line search over the step size (reference [9]'s
	// optimal time step): probe {½, 1, 2}× the CFL step.
	if o.opts.LineSearch && dt > 0 {
		bestDt, bestC := dt, math.Inf(1)
		for _, f := range lineSearchFactors {
			cand := dt * f
			o.psiCand.CopyFrom(o.psi)
			o.psiCand.AddScaled(o.velocity, cand)
			if c := o.costAtPsi(o.psiCand); c < bestC {
				bestC, bestDt = c, cand
			}
		}
		dt = bestDt
	}

	o.evolve(dt)

	if (i+1)%reinitEvery == 0 {
		o.edt.ReinitializeInto(o.reinit, o.reinitTmp, o.psi)
		o.psi.CopyFrom(o.reinit)
	}
	return dt
}

// Snapshot clones the current mask for the snapshot series.
func (s *levelStepper) Snapshot() *grid.Field {
	return (*Optimizer)(s).mask.Clone()
}

// State clones the keep-best ψ when best is set, else the last ψ.
func (s *levelStepper) State(best bool) *grid.Field {
	o := (*Optimizer)(s)
	if best {
		return o.bestPsi.Clone()
	}
	return o.psi.Clone()
}

// SaveState clones the fields a bit-exact resume needs: ψ, the CG
// memory (previous gradient term and velocity), and the keep-best ψ
// when tracked.
func (s *levelStepper) SaveState() map[string]*grid.Field {
	o := (*Optimizer)(s)
	st := map[string]*grid.Field{
		"psi":      o.psi.Clone(),
		"gprev":    o.gPrev.Clone(),
		"velocity": o.velocity.Clone(),
	}
	if o.keepBest {
		st["bestpsi"] = o.bestPsi.Clone()
	}
	return st
}

// RestoreState loads a SaveState map back into the optimizer's scratch.
// Fields it does not know are ignored.
func (s *levelStepper) RestoreState(st map[string]*grid.Field) error {
	o := (*Optimizer)(s)
	psi := st["psi"]
	if psi == nil {
		return fmt.Errorf("core: checkpoint state carries no psi field")
	}
	if psi.W != o.psi.W || psi.H != o.psi.H {
		return fmt.Errorf("%w (%w): checkpoint psi %dx%d, grid %d", ErrShapeMismatch, solve.ErrCheckpointMismatch, psi.W, psi.H, o.psi.W)
	}
	o.psi.CopyFrom(psi)
	for key, dst := range map[string]*grid.Field{
		"gprev":    o.gPrev,
		"velocity": o.velocity,
		"bestpsi":  o.bestPsi,
	} {
		f := st[key]
		if f == nil || dst == nil {
			continue
		}
		if f.W != dst.W || f.H != dst.H {
			return fmt.Errorf("%w (%w): checkpoint %s %dx%d, grid %d", ErrShapeMismatch, solve.ErrCheckpointMismatch, key, f.W, f.H, dst.W)
		}
		dst.CopyFrom(f)
	}
	return nil
}

// costAtPsi evaluates the total cost (Eq. 13) of the mask induced by the
// candidate level-set function, reusing the optimizer's scratch buffers
// (it overwrites mask and maskSpec; the caller recomputes them next
// iteration).
func (o *Optimizer) costAtPsi(psi *grid.Field) float64 {
	o.maskFromPsi(psi)
	o.sim.MaskSpectrumInto(o.maskSpec, o.mask)
	o.sim.ForwardCorners(o.maskSpec, o.target, o.corners)
	nom, pvb := o.costs()
	return nom + o.opts.PVBWeight*pvb
}

// prpCoefficient computes the Polak–Ribière–Polyak coefficient (Eq. 16)
//
//	λ = (‖g_i‖² − g_i·g_{i−1}) / ‖g_{i−1}‖²
//
// from gg = ‖g_i‖², ggPrev = g_i·g_{i−1} and gPrevGPrev = ‖g_{i−1}‖²,
// with the standard PRP+ safeguard: non-finite or negative values reset
// the search direction to steepest descent (λ = 0), which is what
// prevents the jamming the paper mentions.
func prpCoefficient(gg, ggPrev, gPrevGPrev float64) float64 {
	if gPrevGPrev == 0 {
		return 0
	}
	lambda := (gg - ggPrev) / gPrevGPrev
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return 0
	}
	// The binarised mask makes successive gradients far less correlated
	// than in smooth optimization, so unclamped PRP values can exceed 10
	// and turn the momentum into an amplifier. Capping at 1 keeps the
	// accumulated direction a convex-ish blend, which is what restores
	// the paper's "jamming prevented, convergence improved" behaviour.
	if lambda > 1 {
		lambda = 1
	}
	return lambda
}
