package dh

import (
	"math/rand"
	"slices"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// pointDensity computes the exact paper-definition point density at p:
// objects q with px-l/2 < qx <= px+l/2 (and same in y) over l^2.
func pointDensity(states []motion.State, qt motion.Tick, p geom.Point, l float64) float64 {
	n := 0
	for _, s := range states {
		q := s.PositionAt(qt)
		if q.X > p.X-l/2 && q.X <= p.X+l/2 && q.Y > p.Y-l/2 && q.Y <= p.Y+l/2 {
			n++
		}
	}
	return float64(n) / (l * l)
}

func clusteredStates(rng *rand.Rand, n int) []motion.State {
	states := make([]motion.State, n)
	for i := range states {
		var p geom.Point
		if i < n/2 { // dense cluster near (300, 300)
			p = geom.Point{X: 280 + rng.Float64()*40, Y: 280 + rng.Float64()*40}
		} else {
			p = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		states[i] = motion.State{ID: motion.ObjectID(i), Pos: p, Ref: 0}
	}
	return states
}

func TestFilterValidation(t *testing.T) {
	h := newHist(t, 20, 10) // lc = 50
	h.Advance(0)
	if _, err := h.Filter(0, 1, -5); err == nil {
		t.Error("negative l must be rejected")
	}
	if _, err := h.Filter(0, -1, 30); err == nil {
		t.Error("negative rho must be rejected")
	}
	if _, err := h.Filter(0, 1, 60); err == nil {
		t.Error("l < 2*lc must be rejected (lc=50, l=60)")
	}
	if _, err := h.Filter(99, 1, 200); err == nil {
		t.Error("out-of-window timestamp must be rejected")
	}
	if _, err := h.Filter(0, 1, 200); err != nil {
		t.Errorf("valid filter failed: %v", err)
	}
}

func TestFilterEtas(t *testing.T) {
	h := newHist(t, 100, 0) // lc = 10
	h.Advance(0)
	res, err := h.Filter(0, 0.001, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.EtaL != 1 || res.EtaH != 2 {
		t.Errorf("l=30 lc=10: etaL=%d etaH=%d, want 1 and 2", res.EtaL, res.EtaH)
	}
	res, err = h.Filter(0, 0.001, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.EtaL != 1 || res.EtaH != 1 {
		t.Errorf("l=20 lc=10: etaL=%d etaH=%d, want 1 and 1", res.EtaL, res.EtaH)
	}
}

func TestFilterSoundness(t *testing.T) {
	// Accepted cells must be everywhere rho-dense; rejected cells must be
	// nowhere rho-dense (verified by exact point densities on a sample
	// grid within each cell).
	h := newHist(t, 100, 0) // lc = 10
	rng := rand.New(rand.NewSource(5))
	states := clusteredStates(rng, 400)
	h.Advance(0)
	for _, s := range states {
		h.Insert(s)
	}
	const l = 30.0
	rho := 200.0 / 1e6 * 3 // paper's relative threshold with varrho=3 for N=200... scaled for the cluster
	res, err := h.Filter(0, rho, l)
	if err != nil {
		t.Fatal(err)
	}
	acc, rej, cand := res.CountMarks()
	if acc == 0 {
		t.Log("warning: no accepted cells; soundness test degenerate")
	}
	t.Logf("accepted=%d rejected=%d candidates=%d", acc, rej, cand)

	samplesPerCell := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			mk := res.Mark(i, j)
			if mk == Candidate {
				continue
			}
			cell := h.CellRect(i, j)
			for _, fx := range samplesPerCell {
				for _, fy := range samplesPerCell {
					p := geom.Point{
						X: cell.MinX + fx*cell.Width(),
						Y: cell.MinY + fy*cell.Height(),
					}
					d := pointDensity(states, 0, p, l)
					if mk == Accepted && d < rho {
						t.Fatalf("accepted cell (%d,%d) has point %v with density %g < rho %g", i, j, p, d, rho)
					}
					if mk == Rejected && d >= rho {
						t.Fatalf("rejected cell (%d,%d) has point %v with density %g >= rho %g", i, j, p, d, rho)
					}
				}
			}
		}
	}
}

func TestFilterRegionsNesting(t *testing.T) {
	// Pessimistic region (accepted only) is a subset of the optimistic
	// region (accepted + candidates).
	h := newHist(t, 50, 0)
	rng := rand.New(rand.NewSource(6))
	states := clusteredStates(rng, 300)
	h.Advance(0)
	for _, s := range states {
		h.Insert(s)
	}
	res, err := h.Filter(0, 3*300.0/1e6, 60)
	if err != nil {
		t.Fatal(err)
	}
	pess := res.PessimisticRegion()
	opt := res.OptimisticRegion()
	if d := pess.DifferenceArea(opt); d > 1e-9 {
		t.Errorf("pessimistic region not inside optimistic region (diff area %g)", d)
	}
	if pess.Area() > opt.Area() {
		t.Error("pessimistic region larger than optimistic")
	}
	// AcceptedRegion must equal the pessimistic region.
	if got, want := res.AcceptedRegion().Area(), pess.Area(); got != want {
		t.Errorf("AcceptedRegion area %g != pessimistic area %g", got, want)
	}
}

func TestFilterCandidatesEnumeration(t *testing.T) {
	h := newHist(t, 40, 0)
	rng := rand.New(rand.NewSource(7))
	states := clusteredStates(rng, 200)
	h.Advance(0)
	for _, s := range states {
		h.Insert(s)
	}
	res, err := h.Filter(0, 2*200.0/1e6, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cand := res.CountMarks()
	cells := res.Candidates()
	if len(cells) != cand {
		t.Fatalf("Candidates() returned %d cells, CountMarks says %d", len(cells), cand)
	}
	for _, c := range cells {
		if res.Mark(c.I, c.J) != Candidate {
			t.Fatalf("cell (%d,%d) in Candidates() but marked %v", c.I, c.J, res.Mark(c.I, c.J))
		}
	}
	// CandidatesByRow is the same set, rows bottom to top, left to right.
	slices.SortFunc(cells, func(a, b CellIndex) int {
		if a.J != b.J {
			return a.J - b.J
		}
		return a.I - b.I
	})
	if rows := res.CandidatesByRow(); !slices.Equal(rows, cells) || cells[0].J == cells[len(cells)-1].J {
		t.Fatalf("CandidatesByRow() = %v, want the candidates of several rows in (J, I) order: %v", rows, cells)
	}
}

func TestMarkString(t *testing.T) {
	if Accepted.String() != "accepted" || Rejected.String() != "rejected" ||
		Candidate.String() != "candidate" || Mark(9).String() != "unknown" {
		t.Error("Mark.String mismatch")
	}
}

// TestFilterAllocationFree pins the filter kernel, BenchmarkFilter's call,
// at zero steady-state allocations: once the result and scratch pools are
// warm, a Filter-then-Release cycle must not touch the heap (the
// zero-allocation contract documented in docs/PERFORMANCE.md).
func TestFilterAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	if n := testing.AllocsPerRun(200, filterOp(t)); n != 0 {
		t.Errorf("BenchmarkFilter: %v allocs/op, want 0", n)
	}
}

// TestFilterReleaseReuse checks pooled results stay correct: a released
// result's buffers may be reused by the next filter call, and the census,
// marks, and derived regions of the fresh result match a from-scratch
// evaluation.
func TestFilterReleaseReuse(t *testing.T) {
	h, err := New(Config{Area: geom.NewRect(0, 0, 100, 100), M: 20, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Advance(0)
	for i := 0; i < 800; i++ {
		h.Insert(motion.State{
			ID:  motion.ObjectID(i + 1),
			Pos: geom.Point{X: float64(i % 97), Y: float64((i * 7) % 89)},
			Ref: 0,
		})
	}
	// Reference evaluation, never released.
	ref, err := h.Filter(2, 0.08, 12)
	if err != nil {
		t.Fatal(err)
	}
	refAcc, refRej, refCand := ref.CountMarks()
	refCands := ref.Candidates()
	refRegion := ref.AcceptedRegion()
	// Churn the pool with differently-parameterized filters.
	for i := 0; i < 10; i++ {
		fr, err := h.Filter(motion.Tick(i%5), 0.01*float64(i+1), 14)
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	got, err := h.Filter(2, 0.08, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	acc, rej, cand := got.CountMarks()
	if acc != refAcc || rej != refRej || cand != refCand {
		t.Fatalf("census after pool churn = (%d,%d,%d), want (%d,%d,%d)", acc, rej, cand, refAcc, refRej, refCand)
	}
	if gc := got.Candidates(); !slices.Equal(gc, refCands) {
		t.Fatalf("candidates after pool churn differ: got %v want %v", gc, refCands)
	}
	if gr := got.AcceptedRegion(); !slices.Equal(gr, refRegion) {
		t.Fatalf("accepted region after pool churn differs: got %v want %v", gr, refRegion)
	}
}
