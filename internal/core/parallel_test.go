package core

import (
	"slices"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// loadWorkers builds identical servers that differ only in worker-pool
// size, loaded with the same seeded workload.
func loadWorkers(t *testing.T, n int, seed int64, workers ...int) []*Server {
	t.Helper()
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = seed
	gcfg.Warmup = 100
	out := make([]*Server, len(workers))
	for i, w := range workers {
		cfg := testConfig()
		cfg.Workers = w
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := datagen.New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(g.InitialStates()); err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func regionsEqual(a, b geom.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelSnapshotEquivalence: the FR refinement fan-out must return
// exactly the sequential answer at any worker count, including more workers
// than candidate windows (17).
func TestParallelSnapshotEquivalence(t *testing.T) {
	servers := loadWorkers(t, 2500, 11, 1, 2, 17)
	for _, varrho := range []float64{1, 3, 5} {
		q := Query{Rho: relRho(2500, varrho), L: 60, At: 10}
		for _, m := range []Method{FR, BruteForce, DHOptimistic} {
			base, err := servers[0].Snapshot(q, m)
			if err != nil {
				t.Fatalf("workers=1 %v varrho=%g: %v", m, varrho, err)
			}
			for i, s := range servers[1:] {
				got, err := s.Snapshot(q, m)
				if err != nil {
					t.Fatalf("workers=%d %v varrho=%g: %v", s.Workers(), m, varrho, err)
				}
				if !regionsEqual(base.Region, got.Region) {
					t.Errorf("%v varrho=%g: workers=%d region differs from sequential (%d vs %d rects, areas %g vs %g)",
						m, varrho, servers[i+1].Workers(), len(got.Region), len(base.Region),
						got.Region.Area(), base.Region.Area())
				}
				if base.ObjectsRetrieved != got.ObjectsRetrieved {
					t.Errorf("%v varrho=%g: workers=%d retrieved %d objects, sequential %d",
						m, varrho, servers[i+1].Workers(), got.ObjectsRetrieved, base.ObjectsRetrieved)
				}
			}
		}
	}
}

// TestFRGatherReadsOnce: an FR snapshot fetches its objects with one index
// descent split over the workers, so at any worker count it reads every page
// at most once and retrieves every object at most once — the same pages and
// the same objects.
func TestFRGatherReadsOnce(t *testing.T) {
	servers := loadWorkers(t, 2500, 11, 1, 2, 17)
	for _, varrho := range []float64{1, 3, 5} {
		q := Query{Rho: relRho(2500, varrho), L: 60, At: 10}
		var reads []int64
		for _, s := range servers {
			before := s.PoolStats()
			res, err := s.Snapshot(q, FR)
			if err != nil {
				t.Fatal(err)
			}
			after := s.PoolStats()
			n := after.Hits + after.Reads - before.Hits - before.Reads
			if n > int64(s.PoolPages()) || res.ObjectsRetrieved > s.NumObjects() || res.Candidates == 0 {
				t.Fatalf("varrho=%g workers=%d: %d page reads of %d pages, %d objects retrieved of %d, %d candidates",
					varrho, s.Workers(), n, s.PoolPages(), res.ObjectsRetrieved, s.NumObjects(), res.Candidates)
			}
			reads = append(reads, n)
		}
		for i, n := range reads {
			if n != reads[0] {
				t.Errorf("varrho=%g: workers=%d read %d pages, sequential %d", varrho, servers[i].Workers(), n, reads[0])
			}
		}
	}
}

// TestParallelIntervalEquivalence: the interval fan-out must merge to
// exactly the sequential union at any worker count, including the
// single-timestamp edge case and more workers than timestamps.
func TestParallelIntervalEquivalence(t *testing.T) {
	servers := loadWorkers(t, 2000, 7, 1, 2, 17)
	q := Query{Rho: relRho(2000, 3), L: 60, At: 5}
	for _, width := range []motion.Tick{0, 1, 4, 9} {
		until := q.At + width
		for _, m := range []Method{FR, DHOptimistic} {
			base, err := servers[0].Interval(q, until, m)
			if err != nil {
				t.Fatalf("workers=1 %v width=%d: %v", m, width, err)
			}
			for i, s := range servers[1:] {
				got, err := s.Interval(q, until, m)
				if err != nil {
					t.Fatalf("workers=%d %v width=%d: %v", s.Workers(), m, width, err)
				}
				if !regionsEqual(base.Region, got.Region) {
					t.Errorf("%v width=%d: workers=%d interval region differs from sequential (%d vs %d rects)",
						m, width, servers[i+1].Workers(), len(got.Region), len(base.Region))
				}
				if base.Candidates != got.Candidates || base.ObjectsRetrieved != got.ObjectsRetrieved {
					t.Errorf("%v width=%d: workers=%d cost counters differ: candidates %d vs %d, retrieved %d vs %d",
						m, width, servers[i+1].Workers(), got.Candidates, base.Candidates,
						got.ObjectsRetrieved, base.ObjectsRetrieved)
				}
			}
		}
	}
}

// TestIntervalSingleTimestampMatchesSnapshot: Interval over [t, t] is by
// Definition 5 exactly the snapshot at t.
func TestIntervalSingleTimestampMatchesSnapshot(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 2000, 7)
	q := Query{Rho: relRho(2000, 3), L: 60, At: 5}
	snap, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := s.Interval(q, q.At, FR)
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(snap.Region, iv.Region) {
		t.Errorf("single-timestamp interval differs from snapshot: %d vs %d rects, areas %g vs %g",
			len(iv.Region), len(snap.Region), iv.Region.Area(), snap.Region.Area())
	}
}

// TestIntervalAnswerIsCoalesced is the regression test for the interval
// union: snapshots of adjacent timestamps overlap heavily, and the interval
// answer must not carry those redundant rectangles (it must cover exactly
// the same point set as the raw union, in coalesced form).
func TestIntervalAnswerIsCoalesced(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 2000, 7)
	q := Query{Rho: relRho(2000, 3), L: 60, At: 5}
	until := q.At + 8
	iv, err := s.Interval(q, until, FR)
	if err != nil {
		t.Fatal(err)
	}
	if len(iv.Region) == 0 {
		t.Skip("empty interval answer; pick a denser workload")
	}
	// The answer is in coalesced form: re-coalescing our own copy of it must
	// be a no-op.
	if re := geom.CoalesceInPlace(slices.Clone(iv.Region)); len(re) != len(iv.Region) {
		t.Errorf("interval answer not coalesced: %d rects re-coalesce to %d", len(iv.Region), len(re))
	}
	// And it covers exactly the union of the per-timestamp snapshots.
	var raw geom.Region
	for at := q.At; at <= until; at++ {
		sub := q
		sub.At = at
		r, err := s.Snapshot(sub, FR)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, r.Region...)
	}
	if rawArea, ivArea := raw.Area(), iv.Region.Area(); !approxEqArea(rawArea, ivArea) {
		t.Errorf("interval answer area %g differs from raw union area %g", ivArea, rawArea)
	}
	if len(iv.Region) > len(raw) {
		t.Errorf("interval answer (%d rects) larger than the raw union (%d rects)", len(iv.Region), len(raw))
	}
}

func approxEqArea(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > a {
		scale = b
	}
	return d <= 1e-9*scale
}
