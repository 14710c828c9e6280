package litho

import (
	"fmt"
	"strings"
	"time"

	"lsopc/internal/grid"
	"lsopc/internal/optics"
)

// GroupCorner is one process corner of a focus group. The corners of a
// group share one kernel bank (Bank(Cond)), so their coherent fields E_k
// are the same and they differ only by the dose that scales the aerial
// image: one SOCS pass serves the whole group.
type GroupCorner struct {
	Cond Condition
	// Weight scales the corner's cost gradient (ForwardAndGradientGroup).
	Weight float64
	// Out receives the corner's dose-scaled aerial image and, when Out.R
	// is non-nil, its sigmoid resist image. Every corner needs its own.
	Out *CornerImages
	// Cost is set by the call to ‖R − target‖² when a resist image and a
	// target are given.
	Cost float64
}

// FocusGroups splits conds into runs of consecutive conditions that
// share a kernel bank: the corners one group call can simulate together.
// The runs are sub-slices of conds, in order. With the contest
// conditions nominal and outer share the best-focus bank and inner runs
// the defocused one; without a focus excursion all three share one.
func (s *Simulator) FocusGroups(conds []Condition) [][]Condition {
	var groups [][]Condition
	for lo := 0; lo < len(conds); {
		hi := lo + 1
		for hi < len(conds) && s.Bank(conds[hi]) == s.Bank(conds[lo]) {
			hi++
		}
		groups = append(groups, conds[lo:hi])
		lo = hi
	}
	return groups
}

// groupBank returns the kernel bank every corner of the group shares. It
// panics on an empty group or on corners whose banks differ: those need
// separate SOCS passes and therefore separate calls.
func (s *Simulator) groupBank(group []GroupCorner) *optics.Bank {
	if len(group) == 0 {
		panic("litho: empty focus group")
	}
	bank := s.Bank(group[0].Cond)
	for _, c := range group[1:] {
		if s.Bank(c.Cond) != bank {
			panic(fmt.Sprintf("litho: %v and %v use different focus banks and cannot share a focus group",
				group[0].Cond, c.Cond))
		}
	}
	return bank
}

// groupLabel names a group in trace events: its conditions joined by "+".
func groupLabel(group []GroupCorner) string {
	switch {
	case len(group) == 1:
		return group[0].Cond.String()
	case len(group) == 2 && group[0].Cond == Nominal && group[1].Cond == Outer:
		return "nominal+outer"
	}
	names := make([]string, len(group))
	for i, c := range group {
		names[i] = c.Cond.String()
	}
	return strings.Join(names, "+")
}

// groupForward runs one SOCS pass over bank and derives each corner's
// images from it: aerial = dose · blur(Σ_k μ_k |E_k|²), the same bits a
// pass per corner gives, then the resist image and cost where asked
// for. The fields E_k are left in the kernel batch for the adjoint.
func (s *Simulator) groupForward(bank *optics.Bank, maskSpec *grid.CField, target *grid.Field, group []GroupCorner) {
	base := s.aerial
	if len(group) == 1 {
		base = group[0].Out.Aerial
	}
	s.aerialInto(base, bank, maskSpec)
	s.blurInPlace(base)
	for i := range group {
		c := &group[i]
		dst := c.Out.Aerial
		switch dose := s.Dose(c.Cond); {
		case dose != 1:
			dst.Scale(base, dose)
		case dst != base:
			dst.CopyFrom(base)
		}
		if c.Out.R == nil {
			continue
		}
		s.Resist(c.Out.R, dst)
		if target != nil {
			c.Cost = CostAt(c.Out.R, target)
		}
	}
}

// ForwardGroup fills every corner's images (and, given a target, its
// cost) from one SOCS pass; see GroupCorner. Corners with a nil Out.R
// get the aerial image only. It panics if the corners' banks differ.
func (s *Simulator) ForwardGroup(maskSpec *grid.CField, target *grid.Field, group []GroupCorner) {
	start := time.Now()
	s.groupForward(s.groupBank(group), maskSpec, target, group)
	d := time.Since(start)
	mForwardNS.Observe(float64(d))
	s.traceGroup("forward", group, d)
}

// ForwardAndGradientGroup runs the exact forward model for every corner
// of a focus group from one SOCS pass, sets each corner's images and
// cost, and accumulates Σ_c w_c·∂‖R_c−target‖²/∂M into grad (Eq. 11)
// with one adjoint pass. The adjoint is linear in the resist sensitivity
// W, so the group's gradient is the adjoint of Σ_c w_c·W_c: equal to the
// per-corner sum up to rounding. A one-corner group applies its weight
// after the adjoint, exactly as ForwardAndGradient always has. It panics
// if the corners' banks differ.
func (s *Simulator) ForwardAndGradientGroup(grad *grid.Field, maskSpec *grid.CField, target *grid.Field, group []GroupCorner) {
	start := time.Now()
	bank := s.groupBank(group)

	// Pass 1: coherent fields and aerial intensity (Eq. 1). One batched
	// banded inverse FFT over all K kernels on the reduced grid, then a
	// pixel-partitioned SOCS reduction, shared by every corner of the
	// group.
	s.groupForward(bank, maskSpec, target, group)

	// Pass 2: adjoint accumulation in the frequency domain over the
	// combined sensitivity, reusing the batched E_k.
	weight := 1.0
	if len(group) == 1 {
		weight = group[0].Weight
	}
	for i := range group {
		c := &group[i]
		scale := 2 * s.cfg.Steepness * s.Dose(c.Cond)
		if len(group) > 1 {
			scale *= c.Weight
		}
		s.sensitivityTerm(s.sens, c.Out.R, target, scale, i > 0)
	}
	s.blurInPlace(s.sens)
	s.adjoint(bank, maskSpec, true)
	s.applyGradient(grad, weight)
	d := time.Since(start)
	mFusedNS.Observe(float64(d))
	s.traceGroup("forward_gradient", group, d)
}

// ForwardAndGradient runs the exact forward model at one corner and
// accumulates weight·∂‖R−target‖²/∂M into grad (Eq. 11), filling out
// with the aerial and sigmoid resist images. It returns the corner cost
// ‖R−target‖². It is the one-corner ForwardAndGradientGroup: compared
// with Forward followed by GradientInto it computes each kernel's
// coherent field only once.
func (s *Simulator) ForwardAndGradient(grad *grid.Field, maskSpec *grid.CField, cond Condition, target *grid.Field, out *CornerImages, weight float64) float64 {
	group := [1]GroupCorner{{Cond: cond, Weight: weight, Out: out}}
	s.ForwardAndGradientGroup(grad, maskSpec, target, group[:])
	return group[0].Cost
}
