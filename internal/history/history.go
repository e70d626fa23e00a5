// Package history archives finished movement segments so PDR queries can be
// answered for *past* timestamps — the audit-trail counterpart to the
// engine's predictive queries. Segments are partitioned into fixed-width
// time buckets (SETI-style: temporal partitioning first, spatial filtering
// inside the partition), so a past snapshot touches only the segments whose
// validity interval intersects one bucket.
package history

import (
	"fmt"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Segment is one archived movement: the linear motion State was the
// object's active movement during [From, To).
type Segment struct {
	State    motion.State
	From, To motion.Tick
}

// Valid reports whether the segment was active at time t.
func (s Segment) Valid(t motion.Tick) bool { return t >= s.From && t < s.To }

// Config parameterizes the store.
type Config struct {
	// Area is the monitored plane (positions outside it do not exist, the
	// same contract as the live engine).
	Area geom.Rect
	// BucketTicks is the temporal partition width (a natural choice is the
	// maximum update interval U, bounding segments per bucket).
	BucketTicks motion.Tick
}

// Store is an append-only archive of movement segments.
type Store struct {
	cfg     Config
	buckets map[int64][]Segment
	count   int
	minT    motion.Tick
	maxT    motion.Tick
	any     bool
}

// New creates an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Area.IsEmpty() {
		return nil, fmt.Errorf("history: empty area")
	}
	if cfg.BucketTicks <= 0 {
		return nil, fmt.Errorf("history: bucket width must be positive, got %d", cfg.BucketTicks)
	}
	return &Store{cfg: cfg, buckets: make(map[int64][]Segment)}, nil
}

// Len returns the number of archived segments.
func (st *Store) Len() int { return st.count }

// Span returns the archived time range [min, max) (zeroes when empty).
func (st *Store) Span() (motion.Tick, motion.Tick) {
	if !st.any {
		return 0, 0
	}
	return st.minT, st.maxT
}

func (st *Store) bucketOf(t motion.Tick) int64 {
	b := int64(t) / int64(st.cfg.BucketTicks)
	if t < 0 && int64(t)%int64(st.cfg.BucketTicks) != 0 {
		b--
	}
	return b
}

// Record archives a segment; it is added to every time bucket its validity
// interval overlaps. Zero- or negative-length segments are rejected.
func (st *Store) Record(seg Segment) error {
	if seg.To <= seg.From {
		return fmt.Errorf("history: empty segment [%d, %d)", seg.From, seg.To)
	}
	for b := st.bucketOf(seg.From); b <= st.bucketOf(seg.To-1); b++ {
		st.buckets[b] = append(st.buckets[b], seg)
	}
	st.count++
	if !st.any || seg.From < st.minT {
		st.minT = seg.From
	}
	if !st.any || seg.To > st.maxT {
		st.maxT = seg.To
	}
	st.any = true
	return nil
}

// PointsAt returns the in-area positions of every object at past time t.
func (st *Store) PointsAt(t motion.Tick) []geom.Point {
	var out []geom.Point
	for _, seg := range st.buckets[st.bucketOf(t)] {
		if !seg.Valid(t) {
			continue
		}
		p := seg.State.PositionAt(t)
		if st.cfg.Area.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}
