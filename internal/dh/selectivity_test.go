package dh

import (
	"math"
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func TestEstimateCountBrackets(t *testing.T) {
	// The fractional estimate must lie between the count over cells fully
	// inside r and the count over all cells intersecting r.
	h := newHist(t, 40, 0) // lc = 25
	rng := rand.New(rand.NewSource(1))
	states := make([]motion.State, 2000)
	h.Advance(0)
	for i := range states {
		states[i] = randState(rng, i, 0)
		h.Insert(states[i])
	}
	for trial := 0; trial < 40; trial++ {
		r := geom.Rect{MinX: rng.Float64() * 800, MinY: rng.Float64() * 800}
		r.MaxX = r.MinX + 20 + rng.Float64()*300
		r.MaxY = r.MinY + 20 + rng.Float64()*300

		var lower, upper int
		for i := 0; i < 40; i++ {
			for j := 0; j < 40; j++ {
				c := h.Count(0, i, j)
				if c == 0 {
					continue
				}
				cell := h.CellRect(i, j)
				if r.ContainsRect(cell) {
					lower += c
				}
				if cell.Intersects(r) {
					upper += c
				}
			}
		}
		est, err := h.EstimateCount(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if est < float64(lower)-1e-9 || est > float64(upper)+1e-9 {
			t.Fatalf("trial %d: estimate %g outside [%d, %d]", trial, est, lower, upper)
		}
	}
	// Validation and degenerate cases.
	if _, err := h.EstimateCount(99, area1000()); err == nil {
		t.Error("out-of-window timestamp must be rejected")
	}
	if est, _ := h.EstimateCount(0, geom.Rect{MinX: -50, MinY: -50, MaxX: -10, MaxY: -10}); est != 0 {
		t.Errorf("outside-area window estimate %g, want 0", est)
	}
}

func TestEstimateCountAccuracyOnUniform(t *testing.T) {
	// On near-uniform data the estimator should land close to the truth.
	h := newHist(t, 50, 0)
	rng := rand.New(rand.NewSource(2))
	states := make([]motion.State, 20000)
	h.Advance(0)
	for i := range states {
		states[i] = motion.State{
			ID:  motion.ObjectID(i),
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Ref: 0,
		}
		h.Insert(states[i])
	}
	r := geom.Rect{MinX: 123, MinY: 234, MaxX: 567, MaxY: 789}
	exact := 0
	for _, s := range states {
		if r.Contains(s.Pos) {
			exact++
		}
	}
	est, err := h.EstimateCount(0, r)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est-float64(exact)) / float64(exact); rel > 0.05 {
		t.Errorf("uniform estimate %g vs exact %d (rel err %.3f > 5%%)", est, exact, rel)
	}
}
