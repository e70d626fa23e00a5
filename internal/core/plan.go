package core

import "fmt"

// Plan is a method recommendation for a query, produced from a cheap
// filter-step probe without touching the object index.
type Plan struct {
	// Method is the recommended evaluation strategy.
	Method Method
	// Candidates is the number of cells the FR refinement would resolve.
	Candidates int
	// RefineObjects estimates the object records FR would retrieve,
	// computed from histogram selectivity over the grown candidate cells.
	RefineObjects float64
	// PABudget is the fixed work estimate of a PA extraction (in the same
	// arbitrary units as RefineObjects).
	PABudget float64
	// Reason states the decision in one sentence.
	Reason string
}

// Recommend picks an evaluation method for q. With allowApprox false the
// answer is always FR (the only complete exact method with index support).
// With allowApprox true, the planner probes the filter step and recommends
// the Chebyshev approximation when (a) the surfaces were built for q.L and
// (b) the estimated refinement volume exceeds the roughly-constant cost of
// a branch-and-bound extraction; otherwise exact FR is cheap enough to
// prefer.
func (s *Server) Recommend(q Query, allowApprox bool) (*Plan, error) {
	s.rlockAll()
	defer s.runlockAll()
	if err := s.validateLocked(q); err != nil {
		return nil, err
	}
	if !allowApprox {
		return &Plan{Method: FR, Reason: "exact answer required"}, nil
	}
	if s.surf == nil {
		return &Plan{Method: FR, Reason: "approximation surfaces are disabled"}, nil
	}
	// lint:ignore floateq config identity: the surfaces answer only the
	// exact l they were built for, so the planner must match it exactly.
	if q.L != s.surf.L() {
		return &Plan{Method: FR, Reason: fmt.Sprintf(
			"approximation surfaces are built for l=%g, query uses l=%g", s.surf.L(), q.L)}, nil
	}
	fr, err := s.filterLocked(q)
	if err != nil {
		return nil, err
	}
	cands := fr.Candidates()
	fr.Release()
	plan := &Plan{
		// A branch-and-bound extraction evaluates on the order of the md^2
		// floor cells in the worst case; the constant per evaluation is
		// comparable to one sweep event per retrieved object.
		PABudget: float64(s.cfg.PAMD) * float64(s.cfg.PAMD) / 8,
	}
	for _, c := range cands {
		plan.Candidates++
		grown := s.hists[0].CellRect(c.I, c.J).Grow(q.L / 2)
		for _, h := range s.hists {
			est, err := h.EstimateCount(q.At, grown)
			if err != nil {
				return nil, err
			}
			plan.RefineObjects += est
		}
	}
	if plan.RefineObjects > plan.PABudget {
		plan.Method = PA
		plan.Reason = fmt.Sprintf(
			"estimated refinement volume %.0f objects exceeds the approximation budget %.0f",
			plan.RefineObjects, plan.PABudget)
	} else {
		plan.Method = FR
		plan.Reason = fmt.Sprintf(
			"refinement is cheap (%d candidate cells, ~%.0f objects); exact answer costs little",
			plan.Candidates, plan.RefineObjects)
	}
	return plan, nil
}
