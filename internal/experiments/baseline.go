package experiments

import (
	"fmt"
	"io"

	"pdr/internal/baselines"
	"pdr/internal/core"
	"pdr/internal/geom"
)

// BaselineRow quantifies one prior-art method against the exact PDR answer.
type BaselineRow struct {
	Method string
	// CoveragePct is the share of the true dense area the method reports.
	CoveragePct float64
	// ExcessPct is the share of the method's answer that is not actually
	// dense (violates the local-density guarantee).
	ExcessPct float64
	// Note carries method-specific findings (ambiguity, center checks).
	Note string
}

// BaselineComparison puts numbers on the paper's Sec. 2 criticisms over a
// real workload: the dense-cell method's answer loss, EDQ's reporting
// ambiguity, and the missing local-density guarantees of both, all measured
// against the exact PDR region.
func (r *Runner) BaselineComparison() ([]BaselineRow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	area := e.S.Config().Area
	rho := core.RelativeThreshold(e.S.NumObjects(), 3, area)
	qt := e.S.Now()

	exact, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, core.FR)
	if err != nil {
		return nil, err
	}
	exactArea := exact.Region.Area()
	if exactArea == 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline comparison (empty exact region)")
	}

	// Predicted in-area object positions at qt, shared by both baselines.
	var points []geom.Point
	for _, st := range e.S.LiveStates() {
		p := st.PositionAt(qt)
		if area.Contains(p) {
			points = append(points, p)
		}
	}

	var rows []BaselineRow

	// Dense-cell method with cell edge = l (its natural configuration).
	m := int(area.Width() / l)
	dc := baselines.DenseCells(points, area, m, rho)
	rows = append(rows, BaselineRow{
		Method:      fmt.Sprintf("dense-cell (m=%d)", m),
		CoveragePct: 100 * dc.IntersectionArea(exact.Region) / exactArea,
		ExcessPct:   pct(dc.DifferenceArea(exact.Region), dc.Area()),
		Note:        fmt.Sprintf("%d cells reported", len(dc)),
	})

	// EDQ under both scan orders.
	ltr := baselines.EDQ(points, area, l, rho, baselines.ScanLeftToRight)
	rtl := baselines.EDQ(points, area, l, rho, baselines.ScanRightToLeft)
	ltrRegion := baselines.Region(ltr)
	rtlRegion := baselines.Region(rtl)
	disagree := ltrRegion.DifferenceArea(rtlRegion) + rtlRegion.DifferenceArea(ltrRegion)
	centersInPDR := 0
	for _, sq := range append(append([]baselines.EDQSquare{}, ltr...), rtl...) {
		if exact.Region.Contains(sq.Center) {
			centersInPDR++
		}
	}
	total := len(ltr) + len(rtl)
	note := fmt.Sprintf("order disagreement area %.0f; %d/%d centers rho-dense under PDR",
		disagree, centersInPDR, total)
	rows = append(rows, BaselineRow{
		Method:      "EDQ (left-to-right)",
		CoveragePct: 100 * ltrRegion.IntersectionArea(exact.Region) / exactArea,
		ExcessPct:   pct(ltrRegion.DifferenceArea(exact.Region), ltrRegion.Area()),
		Note:        note,
	})
	rows = append(rows, BaselineRow{
		Method:      "EDQ (right-to-left)",
		CoveragePct: 100 * rtlRegion.IntersectionArea(exact.Region) / exactArea,
		ExcessPct:   pct(rtlRegion.DifferenceArea(exact.Region), rtlRegion.Area()),
		Note:        fmt.Sprintf("%d squares reported", len(rtl)),
	})

	// PDR itself, for reference.
	rows = append(rows, BaselineRow{
		Method: "PDR (FR)", CoveragePct: 100, ExcessPct: 0,
		Note: fmt.Sprintf("%d rects, area %.0f", len(exact.Region), exactArea),
	})
	return rows, nil
}

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// PrintBaselines renders baseline-comparison rows.
func PrintBaselines(w io.Writer, rows []BaselineRow) error {
	r := newReport(w)
	r.text("method\tcoverage%\texcess%\tnote")
	for _, row := range rows {
		r.linef("%s\t%.1f\t%.1f\t%s\n", row.Method, row.CoveragePct, row.ExcessPct, row.Note)
	}
	return r.flush()
}
