package core

import (
	"math"
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// TestResultAreaOverStream is the disjointness property Result.Area rests on:
// after every step of differentialStream, every snapshot method's answer and
// the past reconstruction — whose areas are plain sums of their rectangles —
// agree with Klee's measure of the same rectangles to 1e-12 relative
// (geom.UnionArea, which geom's TestAreaBitsOfQueryAnswers pins to
// referenceUnionArea bit for bit). An interval answer's snapshots overlap, so
// its Area must be the measure itself, and must differ from the naive sum.
func TestResultAreaOverStream(t *testing.T) {
	s, err := NewServer(streamConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	disjoint := func(label string, res *Result) {
		t.Helper()
		measure := geom.UnionArea(res.Region)
		if d := math.Abs(res.Area - measure); d > 1e-12*measure {
			t.Fatalf("%s: Area %v is not the measure %v of its %d rectangles (off by %g): the answer overlaps itself",
				label, res.Area, measure, len(res.Region), d)
		}
	}
	overlapped := 0
	differentialStream(t, s, func(step string, now motion.Tick, _ map[motion.ObjectID]motion.State, rng *rand.Rand) {
		q := Query{Rho: 0.0002, L: 100, At: now + motion.Tick(rng.Intn(25))}
		for _, m := range allMethods {
			res, err := s.Snapshot(q, m)
			if err != nil {
				t.Fatalf("%s: %v: %v", step, m, err)
			}
			disjoint(step+" "+m.String(), res)
		}
		if now > 0 {
			past := q
			past.At = motion.Tick(rng.Intn(int(now)))
			res, err := s.PastSnapshot(past)
			if err != nil {
				t.Fatalf("%s: past: %v", step, err)
			}
			disjoint(step+" past", res)
		}
		for _, m := range []Method{FR, PA} {
			res, err := s.Interval(q, q.At+4, m)
			if err != nil {
				t.Fatalf("%s: %v interval: %v", step, m, err)
			}
			if measure := geom.UnionArea(res.Region); math.Float64bits(res.Area) != math.Float64bits(measure) {
				t.Fatalf("%s: %v interval: Area %v, measure %v", step, m, res.Area, measure)
			}
			if sum := geom.DisjointArea(res.Region); sum > res.Area*(1+1e-9) {
				overlapped++
			}
		}
	}, nil)
	if overlapped == 0 {
		t.Fatal("no interval answer overlapped itself — the stream never told the measure from the sum")
	}
}
