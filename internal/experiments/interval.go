package experiments

import (
	"io"
	"time"

	"pdr/internal/core"
	"pdr/internal/motion"
)

// IntervalRow is one window-width point of the interval-query extension
// study (paper Definition 5; not part of the paper's evaluation). Each total
// is the medianCost of the method's Result.Total over warm calls.
type IntervalRow struct {
	Window  int
	PATotal time.Duration
	DHTotal time.Duration
	FRTotal time.Duration
	// AreaGrowthPct is the interval answer's area relative to the first
	// snapshot's area (how much the union smears as the window widens).
	AreaGrowthPct float64
}

// ExtIntervalCost measures interval PDR queries (the union over [now,
// now+w]) for increasing window widths with the two cheap methods and the
// exact one, FR. Each evaluates every snapshot on its own, so all three
// scale linearly in the window width; the union area grows monotonically.
// Each method and window is timed by medianCost.
func (r *Runner) ExtIntervalCost(widths []int) ([]IntervalRow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	rho := core.RelativeThreshold(e.S.NumObjects(), 3, e.S.Config().Area)
	q := core.Query{Rho: rho, L: l, At: e.S.Now()}

	base, err := e.S.Snapshot(q, core.PA)
	if err != nil {
		return nil, err
	}
	baseArea := base.Region.Area()

	var rows []IntervalRow
	for _, w := range widths {
		until := e.S.Now() + motion.Tick(w)
		var last *core.Result // the answer of total's latest call
		total := func(m core.Method) (time.Duration, error) {
			return medianCost(func() (time.Duration, error) {
				res, err := e.S.Interval(q, until, m)
				if err != nil {
					return 0, err
				}
				last = res
				return res.Total(), nil
			})
		}
		row := IntervalRow{Window: w}
		if row.PATotal, err = total(core.PA); err != nil {
			return nil, err
		}
		if baseArea > 0 {
			row.AreaGrowthPct = 100 * (last.Region.Area() - baseArea) / baseArea
		}
		if row.DHTotal, err = total(core.DHOptimistic); err != nil {
			return nil, err
		}
		if row.FRTotal, err = total(core.FR); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintInterval renders the extension study rows.
func PrintInterval(w io.Writer, rows []IntervalRow) error {
	r := newReport(w)
	r.text("window\tPA total\tDH total\tFR total\tarea growth %")
	for _, row := range rows {
		r.linef("%d\t%s\t%s\t%s\t%+.1f\n", row.Window, fmtDur(row.PATotal), fmtDur(row.DHTotal), fmtDur(row.FRTotal), row.AreaGrowthPct)
	}
	return r.flush()
}
