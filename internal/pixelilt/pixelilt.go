// Package pixelilt re-implements the pixel-based OPC baselines the paper
// compares against in Tables I and II: MOSAIC (fast and exact variants)
// [Gao et al., DAC'14], robust OPC [Kuang et al., DATE'15] and PVOPC
// [Su et al., TCAD'16]. The original binaries are not available, so each
// method is rebuilt from its published formulation on top of our litho
// simulator, which isolates the optimizer difference exactly as the
// contest did.
//
// All four share one machinery: the mask is parametrised through a
// pixelwise sigmoid M = σ(a·θ) and θ follows normalised gradient descent
// on the process-window cost. They differ in *which corners are
// simulated when* — the axis the original papers differ on:
//
//   - MOSAIC_fast: alternates one corner per iteration (the "alternate
//     gradient" trick that makes it cheap).
//   - MOSAIC_exact: every corner every iteration, longer schedule.
//   - Robust OPC: simulates only the outer and inner corners and
//     estimates the nominal response from them (the paper's §IV notes
//     exactly this about [15]).
//   - PVOPC: two phases — nominal-only convergence first, then a short
//     process-variation refinement.
package pixelilt

import (
	"context"
	"fmt"
	"math"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/rt"
	"lsopc/internal/solve"
)

// Variant selects the baseline algorithm.
type Variant int

const (
	// MosaicFast is MOSAIC's fast alternate-gradient schedule.
	MosaicFast Variant = iota
	// MosaicExact is MOSAIC's exact full-corner schedule.
	MosaicExact
	// RobustOPC simulates two corners and estimates the third.
	RobustOPC
	// PVOPC runs a nominal phase then a process-variation phase.
	PVOPC
)

// String implements fmt.Stringer with the names used in the paper's
// tables.
func (v Variant) String() string {
	switch v {
	case MosaicFast:
		return "MOSAIC_fast"
	case MosaicExact:
		return "MOSAIC_exact"
	case RobustOPC:
		return "robust OPC"
	case PVOPC:
		return "PVOPC"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists all baselines in Table I column order.
var Variants = []Variant{MosaicFast, MosaicExact, RobustOPC, PVOPC}

// nominalPhase is the fraction of iterations PVOPC spends in its
// nominal-only first phase.
const nominalPhase = 0.6

// The shared machinery's fixed constants.
const (
	// stepSize is θ's move per iteration (pixels of sigmoid input).
	stepSize = 0.4
	// maskSteepness is a in M = σ(a·θ).
	maskSteepness = 4
)

// Options configures a baseline run. DefaultOptions(v) reproduces each
// paper's schedule shape.
type Options struct {
	Variant   Variant
	MaxIter   int
	PVBWeight float64 // weight of the outer/inner corner terms
	// MultiResFactor > 1 runs the coarse-to-fine schedule: the first
	// iterations evolve θ on a grid downsampled by this power-of-two
	// factor, halving the factor each level, with θ interpolated
	// spectrally onto each finer grid; the coarse levels share MaxIter/2
	// evenly. 0 or 1 is single-resolution.
	MultiResFactor int
	// Health enables the numerical-health watchdog over the iteration
	// cost; unhealthy iterations emit a health event and, with
	// AbortOnUnhealthy, stop the run (Outcome.Aborted/AbortReason).
	Health *obs.HealthPolicy
}

// DefaultOptions returns the published schedule shape for the variant.
// Iteration budgets are set so the *relative* runtimes mirror Table II
// (exact ≫ fast ≈ ours > robust > PVOPC).
func DefaultOptions(v Variant) Options {
	o := Options{Variant: v, PVBWeight: 0.6}
	switch v {
	case MosaicFast:
		o.MaxIter = 30
	case MosaicExact:
		o.MaxIter = 90
	case RobustOPC:
		o.MaxIter = 30
	case PVOPC:
		o.MaxIter = 30
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	// NaN and ±Inf first: the ordered comparison below is false for NaN,
	// so a non-finite value would otherwise slip through.
	if math.IsNaN(o.PVBWeight) || math.IsInf(o.PVBWeight, 0) {
		return fmt.Errorf("pixelilt: PVBWeight must be finite, got %g", o.PVBWeight)
	}
	switch {
	case o.MaxIter < 1:
		return fmt.Errorf("pixelilt: MaxIter must be ≥ 1, got %d", o.MaxIter)
	case o.PVBWeight < 0:
		return fmt.Errorf("pixelilt: PVBWeight must be ≥ 0, got %g", o.PVBWeight)
	case o.MultiResFactor < 0:
		return fmt.Errorf("pixelilt: MultiResFactor must be ≥ 0, got %d", o.MultiResFactor)
	case o.MultiResFactor > 1 && !grid.IsPow2(o.MultiResFactor):
		return fmt.Errorf("pixelilt: MultiResFactor must be a power of two, got %d", o.MultiResFactor)
	}
	return nil
}

// cornerPlan returns the corners to simulate at iteration i and their
// gradient weights, encoding the variant's schedule.
func (o Options) cornerPlan(i int) ([]litho.Condition, []float64) {
	switch o.Variant {
	case MosaicFast:
		// Alternate gradient: one corner per iteration, cycling.
		switch i % 3 {
		case 0:
			return []litho.Condition{litho.Nominal}, []float64{1}
		case 1:
			return []litho.Condition{litho.Outer}, []float64{o.PVBWeight}
		default:
			return []litho.Condition{litho.Inner}, []float64{o.PVBWeight}
		}
	case MosaicExact:
		return []litho.Condition{litho.Nominal, litho.Outer, litho.Inner},
			[]float64{1, o.PVBWeight, o.PVBWeight}
	case RobustOPC:
		// Two simulated corners; the nominal response is estimated as
		// their mid-point, which in gradient terms folds the nominal
		// weight into the two extremes.
		w := (1 + o.PVBWeight) / 2
		return []litho.Condition{litho.Outer, litho.Inner}, []float64{w, w}
	case PVOPC:
		if float64(i) < nominalPhase*float64(o.MaxIter) {
			return []litho.Condition{litho.Nominal}, []float64{1}
		}
		return []litho.Condition{litho.Nominal, litho.Outer, litho.Inner},
			[]float64{1, o.PVBWeight, o.PVBWeight}
	default:
		return []litho.Condition{litho.Nominal}, []float64{1}
	}
}

// constantCornerPlan reports whether the variant simulates the same
// corner set every iteration (making its cost series comparable across
// iterations).
func (o Options) constantCornerPlan() bool {
	return o.Variant == MosaicExact || o.Variant == RobustOPC
}

// Optimize runs the pixel-based baseline on the simulator for the given
// target image and is the package's one run entry point. Every run is a
// solve.RunLevels schedule from solve.Plan: one full-resolution level
// when MultiResFactor ≤ 1, else coarse-to-fine (see multires.go).
// Cancellation through ctx yields a *solve.Cancelled error carrying a
// checkpoint; passing it as from (nil starts a fresh run) with the
// original run's options continues the run, and the result then matches
// the uninterrupted run bit-for-bit. A checkpoint that does not fit the
// run fails with an error wrapping solve.ErrCheckpointMismatch.
//
// The outcome's State is the final θ, lifted to full resolution after
// a coarse-level abort; Mask is σ(a·θ) binarised. History holds one
// record per iteration: Cost sums the corner costs simulated that
// iteration, Evals counts those corners, and MaxVelocity is the ∞-norm
// of dL/dθ. Outcome.Evals totals the corner evaluations (the runtime
// proxy).
func Optimize(ctx context.Context, sim *litho.Simulator, target *grid.Field, opts Options, from *solve.Checkpoint) (*solve.Outcome, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	prog := &levelProgram{opts: opts, eng: sim.Engine()}
	sched := solve.Plan(opts.MaxIter, opts.MultiResFactor)
	out, err := solve.RunLevels(ctx, sim, target, sched, prog, 0, from)
	if err != nil {
		return nil, err
	}
	out.Mask = maskFromTheta(out.State)
	return out, nil
}

// stepper adapts one baseline level to the solve.Stepper contract: Eval
// simulates the variant's corner plan and leaves dL/dθ in gradM, Advance
// applies the normalised gradient-descent update to θ. The driver owns
// the loop bookkeeping (budget, history, watchdog, tracing).
type stepper struct {
	sim     *litho.Simulator
	opts    Options
	pool    *rt.Pool
	target  *grid.Field
	offset  int // global iteration number of the level's first step
	theta   *grid.Field
	mask    *grid.Field
	spec    *grid.CField
	gradM   *grid.Field
	corners []litho.Corner // reused corner-set scratch
	maxG    float64        // ∞-norm of dL/dθ from the latest Eval
}

// newStepper leases scratch from the simulator's pool and seeds θ from
// the design (+1 inside, −1 outside; M≈σ(±a)) unless a coarser level
// handed one over via thetaInit (caller keeps ownership). offset is the
// global iteration number of the level's first step.
func newStepper(sim *litho.Simulator, target *grid.Field, opts Options, offset int, thetaInit *grid.Field) *stepper {
	n := sim.GridSize()
	pool := sim.Pool()
	s := &stepper{
		sim:    sim,
		opts:   opts,
		pool:   pool,
		target: target,
		offset: offset,
		theta:  pool.Field(n, n),
		mask:   pool.Field(n, n),
		spec:   pool.CField(n, n),
		gradM:  pool.Field(n, n),
	}
	if thetaInit != nil {
		s.theta.CopyFrom(thetaInit)
	} else {
		for i, v := range target.Data {
			s.theta.Data[i] = 2*v - 1
		}
	}
	return s
}

// release returns the leased scratch to the pool.
func (s *stepper) release() {
	s.pool.PutField(s.theta)
	s.pool.PutField(s.mask)
	s.pool.PutCField(s.spec)
	s.pool.PutField(s.gradM)
}

// driver builds the solve driver for this level. The baselines use a
// fixed step (no adaptive scale, no keep-best) and stop only on budget
// or a vanished gradient (Tolerance 0: maxV ≤ 0 iff the ∞-norm is 0).
func (s *stepper) driver() *solve.Driver {
	health := s.opts.Health
	if health != nil && !s.opts.constantCornerPlan() {
		// MOSAIC_fast cycles corners and PVOPC switches phases, so
		// successive iteration costs sum different corner subsets;
		// windowed stall/divergence checks would compare incommensurable
		// values. Keep only the non-finite check.
		hp := *health
		hp.StallWindow = 0
		hp.DivergenceWindow = 0
		health = &hp
	}
	sink, trace := s.sim.TraceSink()
	return solve.NewDriver(s, solve.Config{
		Method:    s.opts.Variant.String(),
		MaxIter:   s.opts.MaxIter,
		Offset:    s.offset,
		BaseScale: stepSize,
		Sink:      sink,
		Trace:     trace,
		Engine:    s.sim.Engine().Name(),
		Health:    health,
	})
}

// Eval simulates local iteration i's corner plan and computes dL/dθ.
func (s *stepper) Eval(i int) solve.Stats {
	const a = maskSteepness
	// M = σ(a·θ).
	for j, v := range s.theta.Data {
		s.mask.Data[j] = 1 / (1 + math.Exp(-a*v))
	}
	s.sim.MaskSpectrumInto(s.spec, s.mask)

	corners, weights := s.opts.cornerPlan(i)
	// The whole plan runs as one litho call (one adjoint for every
	// corner); costs still sum in plan order.
	s.corners = s.corners[:0]
	for k, cond := range corners {
		s.corners = append(s.corners, litho.Corner{Cond: cond, Weight: weights[k]})
	}
	s.sim.ForwardAndGradientCorners(s.gradM, s.spec, s.target, s.corners)
	cost := 0.0
	for _, c := range s.corners {
		cost += c.Cost
	}

	// dL/dθ = dL/dM ⊙ a·M(1−M); the ∞-norm normalises the step, keeping
	// the update scale-free across benchmarks. A NaN entry makes the
	// norm NaN, so the watchdog sees it and the run cannot read as
	// converged.
	maxG := 0.0
	for j := range s.gradM.Data {
		m := s.mask.Data[j]
		s.gradM.Data[j] *= a * m * (1 - m)
		if g := math.Abs(s.gradM.Data[j]); g > maxG || g != g {
			maxG = g
		}
	}
	s.maxG = maxG
	return solve.Stats{
		Cost:  cost,
		Evals: len(corners),
		Name:  s.opts.Variant.String(),
	}
}

// SaveBest is never called: the baselines report the final iterate.
func (s *stepper) SaveBest() {}

// StepSize: the move is the fixed step size; the convergence statistic
// is the gradient ∞-norm (zero gradient stops the run).
func (s *stepper) StepSize(scale float64) (dt, maxV float64) { return scale, s.maxG }

// GradNorm feeds the watchdog the same statistic the pre-driver loop
// judged: the ∞-norm of dL/dθ.
func (s *stepper) GradNorm() float64 { return s.maxG }

// Advance applies the normalised gradient-descent update.
func (s *stepper) Advance(i int, dt float64) float64 {
	s.theta.AddScaled(s.gradM, -dt/s.maxG)
	return dt
}

// Snapshot clones the current continuous mask σ(a·θ).
func (s *stepper) Snapshot() *grid.Field { return s.mask.Clone() }

// State clones θ. best is never set: the baselines keep no best
// iterate.
func (s *stepper) State(bool) *grid.Field { return s.theta.Clone() }

// SaveState captures θ, the only state a bit-exact resume needs (the
// corner plan is a pure function of the iteration number).
func (s *stepper) SaveState() map[string]*grid.Field {
	return map[string]*grid.Field{"theta": s.theta.Clone()}
}

// RestoreState loads a SaveState map back into the stepper.
func (s *stepper) RestoreState(st map[string]*grid.Field) error {
	theta, ok := st["theta"]
	if !ok {
		return fmt.Errorf("pixelilt: checkpoint state has no theta field")
	}
	if theta.W != s.theta.W || theta.H != s.theta.H {
		return fmt.Errorf("%w: theta %dx%d, grid %d", solve.ErrCheckpointMismatch, theta.W, theta.H, s.theta.W)
	}
	s.theta.CopyFrom(theta)
	return nil
}
