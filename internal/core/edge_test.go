package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

func TestZeroThresholdWholeAreaDense(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 50, 10)
	q := Query{Rho: 0, L: 60, At: 0}
	for _, m := range []Method{FR, BruteForce} {
		r, err := s.Snapshot(q, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want := s.Config().Area.Area()
		if got := r.Region.Area(); math.Abs(got-want) > 1e-6 {
			t.Errorf("%v: rho=0 area = %g, want whole area %g", m, got, want)
		}
	}
}

func TestImpossibleThresholdEmpty(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 50, 11)
	// More objects required than exist.
	q := Query{Rho: 1, L: 60, At: 0} // threshold = 3600 objects
	for _, m := range []Method{FR, PA, BruteForce, DHOptimistic, DHPessimistic} {
		r, err := s.Snapshot(q, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if a := r.Region.Area(); a != 0 {
			t.Errorf("%v: impossible threshold returned area %g", m, a)
		}
	}
}

// TestHugeThresholdFREqualsBruteForce: rho*l^2 = 3.6e303 objects is more
// than exist, for the oracle as for FR — the threshold's int conversion used
// to overflow to a negative number and call the whole area dense.
func TestHugeThresholdFREqualsBruteForce(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 2000, 15)
	q := Query{Rho: 1e300, L: 60, At: 0}
	for _, m := range []Method{FR, BruteForce} {
		r, err := s.Snapshot(q, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(r.Region) != 0 {
			t.Errorf("%v: rho=1e300 answered %d rects (area %g), want none", m, len(r.Region), r.Region.Area())
		}
	}
}

func TestEmptyServerQueries(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Rho: 0.001, L: 60, At: 0}
	for _, m := range []Method{FR, PA, BruteForce} {
		r, err := s.Snapshot(q, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(r.Region) != 0 {
			t.Errorf("%v: empty server returned %d rects", m, len(r.Region))
		}
	}
}

func TestLargeLCoversWholeArea(t *testing.T) {
	// With l as large as the plane, every point's neighborhood holds most
	// objects: FR must still match BF (stress for clipped neighborhoods).
	s, _ := loadServer(t, testConfig(), 500, 12)
	q := Query{Rho: 100.0 / (1000 * 1000), L: 900, At: 0}
	fr, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := s.Snapshot(q, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if d := fr.Region.DifferenceArea(bf.Region) + bf.Region.DifferenceArea(fr.Region); d > 1e-6 {
		t.Fatalf("l=900: FR and BF differ by %g", d)
	}
}

func TestQuickFRMatchesBruteForceSmallWorlds(t *testing.T) {
	// Property: on arbitrary small uniform worlds, the exact methods agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		s, err := NewServer(cfg)
		if err != nil {
			return false
		}
		gcfg := datagen.DefaultConfig(200 + rng.Intn(400))
		gcfg.Seed = seed
		gcfg.Uniform = true
		g, err := datagen.New(gcfg)
		if err != nil {
			return false
		}
		if err := s.Load(g.InitialStates()); err != nil {
			return false
		}
		varrho := 0.5 + 4*rng.Float64()
		q := Query{
			Rho: relRho(s.NumObjects(), varrho),
			L:   40 + rng.Float64()*200,
			At:  motion.Tick(rng.Intn(90)),
		}
		fr, err := s.Snapshot(q, FR)
		if err != nil {
			return false
		}
		bf, err := s.Snapshot(q, BruteForce)
		if err != nil {
			return false
		}
		return fr.Region.DifferenceArea(bf.Region)+bf.Region.DifferenceArea(fr.Region) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestIntervalPA(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 800, 13)
	q := Query{Rho: relRho(800, 2), L: 60, At: 0}
	iv, err := s.Interval(q, 3, PA)
	if err != nil {
		t.Fatal(err)
	}
	// The interval union contains each snapshot.
	for qt := motion.Tick(0); qt <= 3; qt++ {
		sub := q
		sub.At = qt
		r, err := s.Snapshot(sub, PA)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.Region.DifferenceArea(iv.Region); d > 1e-6 {
			t.Fatalf("snapshot at %d not inside interval union (excess %g)", qt, d)
		}
	}
}

// TestIntervalPastTheWindowEvaluatesNothing: an interval that runs past the
// prediction window is refused before its fan-out, with the message the
// first snapshot outside the window gives — no FR gather touches an index
// page first.
func TestIntervalPastTheWindowEvaluatesNothing(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 800, 13)
	past := s.Now() + s.Horizon() + 1
	q := Query{Rho: relRho(800, 2), L: 60, At: s.Now()}
	_, want := s.Snapshot(Query{Rho: q.Rho, L: q.L, At: past}, FR)
	before := s.PoolStats()
	_, err := s.Interval(q, past, FR)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Interval to %d: error %v, want the snapshot's %v", past, err, want)
	}
	if after := s.PoolStats(); after != before {
		t.Errorf("the refused interval touched the pool: %+v -> %+v", before, after)
	}
}

func TestObjectsLeavingAreaConsistency(t *testing.T) {
	// Objects whose predictions exit the plane must be handled identically
	// by FR and BF (the area-existence contract).
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var states []motion.State
	for i := 0; i < 200; i++ {
		// A block near the right border, all racing out of the plane.
		states = append(states, motion.State{
			ID:  motion.ObjectID(i),
			Pos: geom.Point{X: 950 + float64(i%10), Y: 480 + float64(i/10)},
			Vel: geom.Vec{X: 2, Y: 0},
			Ref: 0,
		})
	}
	if err := s.Load(states); err != nil {
		t.Fatal(err)
	}
	for _, qt := range []motion.Tick{0, 10, 30, 60} {
		q := Query{Rho: 100.0 / 1e6, L: 60, At: qt}
		fr, err := s.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := s.Snapshot(q, BruteForce)
		if err != nil {
			t.Fatal(err)
		}
		if d := fr.Region.DifferenceArea(bf.Region) + bf.Region.DifferenceArea(fr.Region); d > 1e-6 {
			t.Fatalf("qt=%d: FR and BF differ by %g with border-exiting objects", qt, d)
		}
	}
	// At qt=60 all objects have left: the region must be empty.
	q := Query{Rho: 1.0 / 1e6, L: 60, At: 60}
	r, err := s.Snapshot(q, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Region) != 0 {
		t.Errorf("objects left the plane but region non-empty: %v", r.Region[:1])
	}
}
