package dh

import (
	"fmt"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// EstimateCount estimates the number of objects inside r at timestamp t
// from the histogram, assuming uniform density within each cell (the
// standard histogram selectivity estimator the paper's related work
// applies to predictive range queries). The estimate always lies between
// the count over fully-contained cells and the count over all intersected
// cells.
func (h *Histogram) EstimateCount(t motion.Tick, r geom.Rect) (float64, error) {
	if t < h.base || t > h.base+h.cfg.Horizon {
		return 0, fmt.Errorf("dh: timestamp %d outside window [%d, %d]", t, h.base, h.base+h.cfg.Horizon)
	}
	w := r.Intersect(h.cfg.Area)
	if w.IsEmpty() {
		return 0, nil
	}
	i1, j1 := h.cellIndex(geom.Point{X: w.MinX, Y: w.MinY})
	i2, j2 := h.cellIndex(geom.Point{X: w.MaxX - 1e-12, Y: w.MaxY - 1e-12})
	var est float64
	for i := i1; i <= i2; i++ {
		for j := j1; j <= j2; j++ {
			c := h.Count(t, i, j)
			if c == 0 {
				continue
			}
			cell := h.CellRect(i, j)
			frac := cell.Intersect(w).Area() / cell.Area()
			est += float64(c) * frac
		}
	}
	return est, nil
}
