package history

import (
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func area1000() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := New(Config{Area: area1000(), BucketTicks: 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{BucketTicks: 10}); err == nil {
		t.Error("empty area must be rejected")
	}
	if _, err := New(Config{Area: area1000()}); err == nil {
		t.Error("zero bucket width must be rejected")
	}
}

func TestRecordValidation(t *testing.T) {
	st := newStore(t)
	if err := st.Record(Segment{From: 5, To: 5}); err == nil {
		t.Error("empty segment must be rejected")
	}
	if err := st.Record(Segment{From: 5, To: 3}); err == nil {
		t.Error("reversed segment must be rejected")
	}
	if st.Len() != 0 {
		t.Error("rejected segments must not count")
	}
}

func TestPointsAtRespectsValidity(t *testing.T) {
	st := newStore(t)
	seg := Segment{
		State: motion.State{ID: 1, Pos: geom.Point{X: 100, Y: 100}, Vel: geom.Vec{X: 1, Y: 0}, Ref: 10},
		From:  10, To: 25,
	}
	if err := st.Record(seg); err != nil {
		t.Fatal(err)
	}
	if got := st.PointsAt(9); len(got) != 0 {
		t.Errorf("before From: %v", got)
	}
	if got := st.PointsAt(10); len(got) != 1 || got[0] != (geom.Point{X: 100, Y: 100}) {
		t.Errorf("at From: %v", got)
	}
	if got := st.PointsAt(24); len(got) != 1 || got[0] != (geom.Point{X: 114, Y: 100}) {
		t.Errorf("at To-1: %v", got)
	}
	if got := st.PointsAt(25); len(got) != 0 {
		t.Errorf("at To (exclusive): %v", got)
	}
	lo, hi := st.Span()
	if lo != 10 || hi != 25 {
		t.Errorf("Span = [%d, %d), want [10, 25)", lo, hi)
	}
}

func TestSegmentSpanningBuckets(t *testing.T) {
	// Bucket width 10; a segment [5, 35) overlaps buckets 0..3 and must be
	// found when querying any of them.
	st := newStore(t)
	seg := Segment{
		State: motion.State{ID: 2, Pos: geom.Point{X: 500, Y: 500}, Ref: 5},
		From:  5, To: 35,
	}
	if err := st.Record(seg); err != nil {
		t.Fatal(err)
	}
	for _, qt := range []motion.Tick{5, 14, 23, 34} {
		if got := st.PointsAt(qt); len(got) != 1 {
			t.Errorf("t=%d: %d points, want 1", qt, len(got))
		}
	}
}

func TestOutOfAreaPositionsDropped(t *testing.T) {
	st := newStore(t)
	// Racing out of the area: outside after t=10.
	seg := Segment{
		State: motion.State{ID: 3, Pos: geom.Point{X: 995, Y: 500}, Vel: geom.Vec{X: 1, Y: 0}, Ref: 0},
		From:  0, To: 20,
	}
	if err := st.Record(seg); err != nil {
		t.Fatal(err)
	}
	if got := st.PointsAt(4); len(got) != 1 {
		t.Errorf("inside: %d points", len(got))
	}
	if got := st.PointsAt(15); len(got) != 0 {
		t.Errorf("outside the area: %v", got)
	}
}
