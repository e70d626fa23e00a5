package experiments

import (
	"io"
	"time"

	"pdr/internal/core"
	"pdr/internal/motion"
)

// IntervalRow is one window-width point of the interval-query extension
// study (paper Definition 5; not part of the paper's evaluation).
type IntervalRow struct {
	Window  int
	PATotal time.Duration
	DHTotal time.Duration
	// AreaGrowthPct is the interval answer's area relative to the first
	// snapshot's area (how much the union smears as the window widens).
	AreaGrowthPct float64
}

// ExtIntervalCost measures interval PDR queries (the union over [now,
// now+w]) for increasing window widths with the two cheap methods. Both
// scale linearly in the window width by construction; the union area grows
// monotonically. FR behaves identically per snapshot (see Fig 10a for its
// per-snapshot cost) and is omitted here to keep the sweep fast.
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
		pa, err := e.S.Interval(q, until, core.PA)
		if err != nil {
			return nil, err
		}
		dh, err := e.S.Interval(q, until, core.DHOptimistic)
		if err != nil {
			return nil, err
		}
		row := IntervalRow{Window: w, PATotal: pa.Total(), DHTotal: dh.Total()}
		if baseArea > 0 {
			row.AreaGrowthPct = 100 * (pa.Region.Area() - baseArea) / baseArea
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintInterval renders the extension study rows.
func PrintInterval(w io.Writer, rows []IntervalRow) error {
	r := newReport(w)
	r.text("window\tPA total\tDH total\tarea growth %")
	for _, row := range rows {
		r.linef("%d\t%s\t%s\t%+.1f\n", row.Window, fmtDur(row.PATotal), fmtDur(row.DHTotal), row.AreaGrowthPct)
	}
	return r.flush()
}
