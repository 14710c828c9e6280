package analyze

import "sort"

// PhaseDelta compares one phase across two runs. Ratio fields are B/A
// (>1 = slower in B); zero-count sides leave the ratio at 0.
type PhaseDelta struct {
	Name     string  `json:"name"`
	ACount   int     `json:"a_count"`
	BCount   int     `json:"b_count"`
	AP50NS   float64 `json:"a_p50_ns"`
	BP50NS   float64 `json:"b_p50_ns"`
	P50Ratio float64 `json:"p50_ratio"`
	ATotalNS int64   `json:"a_total_ns"`
	BTotalNS int64   `json:"b_total_ns"`
	// OnlyA/OnlyB mark phases present in a single run.
	OnlyA bool `json:"only_a,omitempty"`
	OnlyB bool `json:"only_b,omitempty"`
}

// ConvergenceDelta compares the aggregate convergence of two runs:
// sessions are matched by sorted id order where possible, but the
// summary aggregates across all sessions so differently-labelled runs
// still compare.
type ConvergenceDelta struct {
	ASessions      int     `json:"a_sessions"`
	BSessions      int     `json:"b_sessions"`
	AIterations    int     `json:"a_iterations"`
	BIterations    int     `json:"b_iterations"`
	AMeanFinalCost float64 `json:"a_mean_final_cost"`
	BMeanFinalCost float64 `json:"b_mean_final_cost"`
	FinalCostRatio float64 `json:"final_cost_ratio"` // B/A
	// AUnhealthy/BUnhealthy count the replayed watchdog verdicts
	// (Session.Health) over every session.
	AUnhealthy int `json:"a_unhealthy"`
	BUnhealthy int `json:"b_unhealthy"`
}

// RunDiff is the structured comparison of two parsed traces.
type RunDiff struct {
	A            string           `json:"a,omitempty"` // labels
	B            string           `json:"b,omitempty"`
	WallRatio    float64          `json:"wall_ratio"` // B/A
	Phases       []PhaseDelta     `json:"phases"`
	Convergence  ConvergenceDelta `json:"convergence"`
	APlanHitRate float64          `json:"a_plan_cache_hit_rate"`
	BPlanHitRate float64          `json:"b_plan_cache_hit_rate"`
	APoolHitRate float64          `json:"a_pool_hit_rate"`
	BPoolHitRate float64          `json:"b_pool_hit_rate"`
}

// Diff compares two parsed runs phase-by-phase and on aggregate
// convergence.
func Diff(a, b *Run) *RunDiff {
	d := &RunDiff{
		A:            a.Label,
		B:            b.Label,
		APlanHitRate: a.PlanCache.Rate(),
		BPlanHitRate: b.PlanCache.Rate(),
		APoolHitRate: a.Pool.Rate(),
		BPoolHitRate: b.Pool.Rate(),
	}
	if a.WallNS > 0 {
		d.WallRatio = float64(b.WallNS) / float64(a.WallNS)
	}

	names := map[string]bool{}
	for _, p := range a.Phases {
		names[p.Name] = true
	}
	for _, p := range b.Phases {
		names[p.Name] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		pa, pb := a.Phase(n), b.Phase(n)
		pd := PhaseDelta{Name: n}
		if pa != nil {
			pd.ACount, pd.AP50NS, pd.ATotalNS = pa.Count, pa.P50NS, pa.TotalNS
		}
		if pb != nil {
			pd.BCount, pd.BP50NS, pd.BTotalNS = pb.Count, pb.P50NS, pb.TotalNS
		}
		pd.OnlyA = pb == nil
		pd.OnlyB = pa == nil
		if pa != nil && pb != nil && pa.P50NS > 0 {
			pd.P50Ratio = pb.P50NS / pa.P50NS
		}
		d.Phases = append(d.Phases, pd)
	}

	d.Convergence = convergenceDelta(a, b)
	return d
}

func convergenceDelta(a, b *Run) ConvergenceDelta {
	var cd ConvergenceDelta
	aggregate := func(r *Run, sessions, iters, unhealthy *int, meanFinal *float64) {
		var sum float64
		for _, s := range r.Sessions {
			*unhealthy += len(s.Health)
			if len(s.Iterations) == 0 {
				continue
			}
			*sessions++
			*iters += s.Convergence.Iterations
			sum += s.Convergence.FinalCost
		}
		if *sessions > 0 {
			*meanFinal = sum / float64(*sessions)
		}
	}
	aggregate(a, &cd.ASessions, &cd.AIterations, &cd.AUnhealthy, &cd.AMeanFinalCost)
	aggregate(b, &cd.BSessions, &cd.BIterations, &cd.BUnhealthy, &cd.BMeanFinalCost)
	if cd.AMeanFinalCost != 0 {
		cd.FinalCostRatio = cd.BMeanFinalCost / cd.AMeanFinalCost
	}
	return cd
}
