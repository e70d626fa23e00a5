package dh

import (
	"fmt"
	"math"
	"sync"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Mark is the filter-step classification of a grid cell (paper Algorithm 1).
type Mark uint8

const (
	// Rejected cells are certainly nowhere dense.
	Rejected Mark = iota
	// Accepted cells are certainly everywhere dense.
	Accepted
	// Candidate cells need the refinement step.
	Candidate
)

// String implements fmt.Stringer.
func (m Mark) String() string {
	switch m {
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	case Candidate:
		return "candidate"
	default:
		return "unknown"
	}
}

// CellIndex addresses a grid cell.
type CellIndex struct{ I, J int }

// FilterResult is the outcome of the filtering step. Results come from a
// pool: a caller that is done with one (and with every slice derived from
// it) may Release it so steady-state filtering reuses the mark buffer
// instead of allocating a fresh one per query.
type FilterResult struct {
	h     *Histogram
	marks []Mark
	// Mark census, filled during classification: how many cells carry each
	// mark. Candidates/region builders preallocate from these.
	nAcc, nRej, nCand int
	// EtaL and EtaH are the conservative/expansive neighborhood radii used.
	EtaL, EtaH int
}

// filterResults pools FilterResult shells and their mark buffers; see
// FilterResult.Release.
var filterResults = sync.Pool{New: func() any { return new(FilterResult) }}

// filterScratch holds filterCounts' prefix-sum grid — per-call working
// memory that never escapes a filter call.
type filterScratch struct {
	pre []int64
}

var filterScratches = sync.Pool{New: func() any { return new(filterScratch) }}

// Release returns the result's buffers to the filter pool. Callers that own
// a FilterResult and are done with it (and every slice derived from it)
// should release it so steady-state filtering allocates nothing; releasing
// is optional — an unreleased result is simply collected. Release is
// idempotent; the result must not be used afterwards.
func (r *FilterResult) Release() {
	if r.h == nil {
		return
	}
	marks := r.marks
	*r = FilterResult{marks: marks[:0]}
	filterResults.Put(r)
}

// Mark returns the classification of cell (i, j).
func (r *FilterResult) Mark(i, j int) Mark { return r.marks[i*r.h.cfg.M+j] }

// Candidates returns the candidate cells in storage order (ascending I, then
// J — column by column across the plane). The returned
// slice is freshly allocated at its exact size (from the mark census) and is
// owned by the caller — it stays valid after Release.
func (r *FilterResult) Candidates() []CellIndex {
	out := make([]CellIndex, 0, r.nCand)
	m := r.h.cfg.M
	for idx, mk := range r.marks {
		if mk == Candidate {
			out = append(out, CellIndex{idx / m, idx % m})
		}
	}
	return out
}

// CandidatesByRow returns the candidate cells row by row: ascending J (one
// histogram row is one Y extent), ascending I — left to right — within a row.
// It is the order the refinement walks them in: neighbours in a row share
// most of their grown windows, so a row's candidates are swept together.
// Ownership is as for Candidates.
func (r *FilterResult) CandidatesByRow() []CellIndex {
	out := make([]CellIndex, 0, r.nCand)
	m := r.h.cfg.M
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if r.marks[i*m+j] == Candidate {
				out = append(out, CellIndex{i, j})
			}
		}
	}
	return out
}

// AcceptedRegion returns the union of all accepted cells.
func (r *FilterResult) AcceptedRegion() geom.Region {
	return r.region(Accepted, r.nAcc)
}

// OptimisticRegion returns accepted plus candidate cells — the "optimistic
// DH" baseline answer (false negatives impossible, false positives likely).
func (r *FilterResult) OptimisticRegion() geom.Region {
	g := make(geom.Region, 0, r.nAcc+r.nCand)
	m := r.h.cfg.M
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if mk := r.marks[i*m+j]; mk == Accepted || mk == Candidate {
				g.Add(r.h.CellRect(i, j))
			}
		}
	}
	return g
}

// PessimisticRegion returns accepted cells only — the "pessimistic DH"
// baseline answer (false positives impossible, false negatives likely).
func (r *FilterResult) PessimisticRegion() geom.Region {
	return r.region(Accepted, r.nAcc)
}

func (r *FilterResult) region(want Mark, n int) geom.Region {
	g := make(geom.Region, 0, n)
	m := r.h.cfg.M
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if r.marks[i*m+j] == want {
				g.Add(r.h.CellRect(i, j))
			}
		}
	}
	return g
}

// CountMarks returns how many cells carry each mark (from the census taken
// during classification).
func (r *FilterResult) CountMarks() (accepted, rejected, candidates int) {
	return r.nAcc, r.nRej, r.nCand
}

// Filter runs the paper's Algorithm 1 (FilterQuery) at timestamp qt for a
// PDR query with density threshold rho and neighborhood edge l. It requires
// l_c <= l/2 (otherwise neither neighborhood bound is valid) and qt within
// the maintained window.
func (h *Histogram) Filter(qt motion.Tick, rho, l float64) (*FilterResult, error) {
	if err := h.validateFilter(qt, rho, l); err != nil {
		return nil, err
	}
	return h.filterCounts(h.slot(qt), rho, l), nil
}

func (h *Histogram) validateFilter(qt motion.Tick, rho, l float64) error {
	if l <= 0 || rho < 0 {
		return fmt.Errorf("dh: bad query parameters rho=%g l=%g", rho, l)
	}
	if err := h.CheckEdge(l); err != nil {
		return err
	}
	if qt < h.base || qt > h.base+h.cfg.Horizon {
		return fmt.Errorf("dh: timestamp %d outside window [%d, %d]", qt, h.base, h.base+h.cfg.Horizon)
	}
	return nil
}

// CheckEdge rejects a neighborhood edge l the filter cannot serve: the
// bounds need l_c <= l/2.
func (h *Histogram) CheckEdge(l float64) error {
	lc := math.Max(h.lcX, h.lcY)
	if lc > l/2+1e-9 {
		return fmt.Errorf("dh: cell edge %g exceeds l/2 = %g; use a finer grid", lc, l/2)
	}
	return nil
}

// filterCounts classifies every cell of one timestamp grid.
func (h *Histogram) filterCounts(counts []int32, rho, l float64) *FilterResult {
	m := h.cfg.M
	// 2-D prefix sums: pre[(i+1)*(m+1)+(j+1)] = sum of counts[0..i][0..j].
	// The buffer is pooled; the fill loop writes rows 1..m x columns 1..m,
	// so only row 0 and column 0 (read by rectSum as the empty-prefix base)
	// need explicit zeroing on reuse.
	sc := filterScratches.Get().(*filterScratch)
	sc.pre = growI64(sc.pre, (m+1)*(m+1))
	pre := sc.pre
	for j := 0; j <= m; j++ {
		pre[j] = 0
	}
	for i := 1; i <= m; i++ {
		pre[i*(m+1)] = 0
	}
	for i := 0; i < m; i++ {
		var row int64
		for j := 0; j < m; j++ {
			row += int64(counts[i*m+j])
			pre[(i+1)*(m+1)+(j+1)] = pre[i*(m+1)+(j+1)] + row
		}
	}
	// rectSum returns the object count over cells [i1..i2] x [j1..j2],
	// clamped to the grid.
	rectSum := func(i1, j1, i2, j2 int) int64 {
		if i1 < 0 {
			i1 = 0
		}
		if j1 < 0 {
			j1 = 0
		}
		if i2 >= m {
			i2 = m - 1
		}
		if j2 >= m {
			j2 = m - 1
		}
		if i1 > i2 || j1 > j2 {
			return 0
		}
		return pre[(i2+1)*(m+1)+(j2+1)] - pre[i1*(m+1)+(j2+1)] -
			pre[(i2+1)*(m+1)+j1] + pre[i1*(m+1)+j1]
	}

	// Neighborhood radii (see DESIGN.md), computed per axis so non-square
	// cells stay sound: the conservative neighborhood (cells strictly
	// within eta_l) is contained in every point's l-square when
	// eta_l*lc <= l/2; the expansive neighborhood contains every point's
	// l-square when eta_h*lc >= l/2.
	etaLx := int(math.Floor(l / (2 * h.lcX) * (1 + 1e-12)))
	etaLy := int(math.Floor(l / (2 * h.lcY) * (1 + 1e-12)))
	etaHx := int(math.Ceil(l / (2 * h.lcX) * (1 - 1e-12)))
	etaHy := int(math.Ceil(l / (2 * h.lcY) * (1 - 1e-12)))
	threshold := rho * l * l

	res := filterResults.Get().(*FilterResult)
	if cap(res.marks) < m*m {
		res.marks = make([]Mark, m*m)
	}
	// The classification switch writes every cell, so a reused mark buffer
	// needs no clearing.
	res.marks = res.marks[:m*m]
	res.h = h
	res.nAcc, res.nRej, res.nCand = 0, 0, 0
	res.EtaL, res.EtaH = etaLx, etaHx
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			nc := rectSum(i-etaLx+1, j-etaLy+1, i+etaLx-1, j+etaLy-1)
			ne := rectSum(i-etaHx, j-etaHy, i+etaHx, j+etaHy)
			switch {
			case float64(nc) >= threshold:
				res.marks[i*m+j] = Accepted
				res.nAcc++
			case float64(ne) < threshold:
				res.marks[i*m+j] = Rejected
				res.nRej++
			default:
				res.marks[i*m+j] = Candidate
				res.nCand++
			}
		}
	}
	filterScratches.Put(sc)
	return res
}

// growI64 returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}
