package experiments

import (
	"fmt"
	"time"

	"pdr/internal/core"
	"pdr/internal/pa"
)

// AblationRow is one measurement of a design-choice ablation.
type AblationRow struct {
	Name    string
	Variant string
	Metric  string
	Value   string
}

// AblationBranchBound compares the paper's branch-and-bound dense-region
// extraction against the "trivial approach" (Sec. 6.3): evaluating the
// density at every cell of an md x md grid.
func (r *Runner) AblationBranchBound() ([]AblationRow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	rho := RelRho(e.S.NumObjects(), 3, e.S.Config().Area)
	qt := e.S.Now()

	timeIt := func(f func() error) (time.Duration, error) {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	surf := e.S.Surface()
	bbTime, err := timeIt(func() error { _, err := surf.DenseRegion(qt, rho); return err })
	if err != nil {
		return nil, err
	}
	gridTime, err := timeIt(func() error { _, err := surf.DenseRegionGrid(qt, rho); return err })
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Name: "extraction", Variant: "branch-and-bound", Metric: "query CPU", Value: fmtDur(bbTime)},
		{Name: "extraction", Variant: "md-grid scan", Metric: "query CPU", Value: fmtDur(gridTime)},
	}, nil
}

// AblationLocalPolynomials compares a single global polynomial against the
// g x g local grid (paper Sec. 6.4): skewed distributions need local
// surfaces for acceptable error.
func (r *Runner) AblationLocalPolynomials() ([]AblationRow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	cfg := e.S.Config()
	rho := RelRho(e.S.NumObjects(), 3, cfg.Area)
	qt := e.S.Now()
	exact, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, core.FR)
	if err != nil {
		return nil, err
	}
	exArea := exact.Region.Area()

	var rows []AblationRow
	for _, g := range []int{1, cfg.PAGrid} {
		surf, err := pa.New(pa.Config{Area: cfg.Area, G: g, Degree: cfg.PADegree, Horizon: e.S.Horizon(), L: l, MD: cfg.PAMD})
		if err != nil {
			return nil, err
		}
		surf.Advance(e.S.Now())
		for _, st := range e.S.LiveStates() {
			surf.Insert(st)
		}
		region, err := surf.DenseRegion(qt, rho)
		if err != nil {
			return nil, err
		}
		variant := fmt.Sprintf("g=%d", g)
		if g == 1 {
			variant = "single global polynomial"
		}
		errPct := 0.0
		if exArea > 0 {
			errPct = 100 * (region.DifferenceArea(exact.Region) + exact.Region.DifferenceArea(region)) / exArea
		}
		rows = append(rows, AblationRow{
			Name: "surfaces", Variant: variant,
			Metric: "total error %", Value: fmt.Sprintf("%.2f", errPct),
		})
	}
	return rows, nil
}

// AblationFilter quantifies the value of the filtering step for FR: how
// many cells the filter settles without refinement, and the refinement
// volume left.
func (r *Runner) AblationFilter() ([]AblationRow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	rho := RelRho(e.S.NumObjects(), 3, e.S.Config().Area)
	res, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: e.S.Now()}, core.FR)
	if err != nil {
		return nil, err
	}
	total := res.Accepted + res.Rejected + res.Candidates
	return []AblationRow{
		{Name: "filter", Variant: "accepted cells", Metric: "count", Value: fmt.Sprintf("%d", res.Accepted)},
		{Name: "filter", Variant: "rejected cells", Metric: "count", Value: fmt.Sprintf("%d", res.Rejected)},
		{Name: "filter", Variant: "candidate cells", Metric: "count", Value: fmt.Sprintf("%d", res.Candidates)},
		{Name: "filter", Variant: "settled without refinement", Metric: "percent",
			Value: fmt.Sprintf("%.2f", 100*float64(res.Accepted+res.Rejected)/float64(total))},
		{Name: "filter", Variant: "objects retrieved in refinement", Metric: "count",
			Value: fmt.Sprintf("%d", res.ObjectsRetrieved)},
	}, nil
}
