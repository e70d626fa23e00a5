package core

import (
	"math"
	"testing"
	"time"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// testConfig is a scaled-down default: coarser structures, same shapes.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.HistM = 50 // lc = 20, supports l >= 40
	cfg.L = 60
	cfg.PAMD = 128
	return cfg
}

func loadServer(t *testing.T, cfg Config, n int, seed int64) (*Server, *datagen.Generator) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = seed
	gcfg.Warmup = 100
	g, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(g.InitialStates()); err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config must be rejected")
	}
	cfg := DefaultConfig()
	cfg.U = 0
	if _, err := NewServer(cfg); err == nil {
		t.Error("U=0 must be rejected")
	}
}

func TestQueryValidation(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 100, 1)
	if _, err := s.Snapshot(Query{Rho: -1, L: 60, At: 0}, FR); err == nil {
		t.Error("negative rho must be rejected")
	}
	if _, err := s.Snapshot(Query{Rho: 1, L: 0, At: 0}, FR); err == nil {
		t.Error("l=0 must be rejected")
	}
	if _, err := s.Snapshot(Query{Rho: 1, L: 60, At: 1000}, FR); err == nil {
		t.Error("far-future query time must be rejected")
	}
	if _, err := s.Snapshot(Query{Rho: 1, L: 60, At: 0}, Method(99)); err == nil {
		t.Error("unknown method must be rejected")
	}
	// PA with mismatched l is rejected with guidance.
	if _, err := s.Snapshot(Query{Rho: 1, L: 45, At: 0}, PA); err == nil {
		t.Error("PA with l != configured L must be rejected")
	}
}

func relRho(n int, varrho float64) float64 {
	// The paper's relative threshold: rho = N * varrho / 10^6 for the
	// 1000x1000 area.
	return float64(n) * varrho / 1e6
}

func TestFREqualsBruteForce(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 2000, 2)
	for _, varrho := range []float64{1, 2, 3} {
		for _, qt := range []motion.Tick{0, 30, 90} {
			q := Query{Rho: relRho(2000, varrho), L: 60, At: qt}
			fr, err := s.Snapshot(q, FR)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := s.Snapshot(q, BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			fa, ba := fr.Region.Area(), bf.Region.Area()
			if math.Abs(fa-ba) > 1e-6*(1+ba) {
				t.Fatalf("varrho=%g qt=%d: FR area %g != BF area %g", varrho, qt, fa, ba)
			}
			if d := fr.Region.DifferenceArea(bf.Region); d > 1e-6 {
				t.Fatalf("varrho=%g qt=%d: FR \\ BF area %g", varrho, qt, d)
			}
			if d := bf.Region.DifferenceArea(fr.Region); d > 1e-6 {
				t.Fatalf("varrho=%g qt=%d: BF \\ FR area %g", varrho, qt, d)
			}
		}
	}
}

func TestFREqualsBruteForceAfterUpdates(t *testing.T) {
	s, g := loadServer(t, testConfig(), 1500, 3)
	for tick := 0; tick < 20; tick++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Rho: relRho(1500, 2), L: 60, At: s.Now() + 15}
	fr, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := s.Snapshot(q, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if d := fr.Region.DifferenceArea(bf.Region) + bf.Region.DifferenceArea(fr.Region); d > 1e-6 {
		t.Fatalf("after updates: FR and BF differ by area %g", d)
	}
}

func TestDHBracketsExact(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 2000, 4)
	q := Query{Rho: relRho(2000, 2), L: 60, At: 10}
	exact, err := s.Snapshot(q, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s.Snapshot(q, DHOptimistic)
	if err != nil {
		t.Fatal(err)
	}
	pess, err := s.Snapshot(q, DHPessimistic)
	if err != nil {
		t.Fatal(err)
	}
	// pessimistic subset of exact subset of optimistic.
	if d := pess.Region.DifferenceArea(exact.Region); d > 1e-6 {
		t.Errorf("pessimistic DH not inside exact region (excess %g)", d)
	}
	if d := exact.Region.DifferenceArea(opt.Region); d > 1e-6 {
		t.Errorf("exact region not inside optimistic DH (excess %g)", d)
	}
}

func TestPAApproximatesExact(t *testing.T) {
	cfg := testConfig()
	cfg.PAGrid = 20 // finer surfaces for a tight approximation
	s, _ := loadServer(t, cfg, 3000, 5)
	q := Query{Rho: relRho(3000, 2), L: 60, At: 5}
	exact, err := s.Snapshot(q, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := s.Snapshot(q, PA)
	if err != nil {
		t.Fatal(err)
	}
	ea := exact.Region.Area()
	if ea == 0 {
		t.Skip("degenerate: no dense region at this threshold")
	}
	fp := approx.Region.DifferenceArea(exact.Region) / ea
	fn := exact.Region.DifferenceArea(approx.Region) / ea
	t.Logf("PA accuracy: r_fp=%.3f r_fn=%.3f (exact area %.0f)", fp, fn, ea)
	if fp > 1.0 || fn > 0.8 {
		t.Errorf("PA wildly inaccurate: r_fp=%g r_fn=%g", fp, fn)
	}
}

func TestIntervalQueryIsUnionOfSnapshots(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 1000, 6)
	q := Query{Rho: relRho(1000, 1.5), L: 60, At: 0}
	iv, err := s.Interval(q, 5, FR)
	if err != nil {
		t.Fatal(err)
	}
	var union geom.Region
	for qt := motion.Tick(0); qt <= 5; qt++ {
		sub := q
		sub.At = qt
		r, err := s.Snapshot(sub, FR)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, r.Region...)
	}
	if d := math.Abs(iv.Region.Area() - union.Area()); d > 1e-6 {
		t.Errorf("interval area %g != union of snapshots %g", iv.Region.Area(), union.Area())
	}
	if _, err := s.Interval(q, -1, FR); err == nil {
		t.Error("empty interval must be rejected")
	}
}

func TestUpdateErrors(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		cfg.Shards = shards
		s, _ := loadServer(t, cfg, 10, 7)
		st := motion.State{ID: 3, Pos: geom.Point{X: 1, Y: 1}, Ref: 0}
		// Deleting a state that does not match the live one fails.
		if err := s.Apply(motion.NewDelete(st, 0)); err == nil {
			t.Errorf("shards=%d: mismatched delete must fail", shards)
		}
		// Deleting an unknown object fails.
		unknown := motion.State{ID: 9999, Pos: geom.Point{X: 1, Y: 1}, Ref: 0}
		if err := s.Apply(motion.NewDelete(unknown, 0)); err == nil {
			t.Errorf("shards=%d: unknown delete must fail", shards)
		}
		// Double insert fails; the rejections above and here changed nothing,
		// so the matching delete still succeeds.
		fresh := motion.State{ID: 5000, Pos: geom.Point{X: 2, Y: 2}, Ref: 0}
		if err := s.Apply(motion.NewInsert(fresh)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(motion.NewInsert(fresh)); err == nil {
			t.Errorf("shards=%d: double insert must fail", shards)
		}
		if err := s.Apply(motion.NewDelete(fresh, 0)); err != nil {
			t.Errorf("shards=%d: valid delete rejected: %v", shards, err)
		}
		// Time cannot move backwards, and queries cannot precede the clock.
		if err := s.Tick(5, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Tick(3, nil); err == nil {
			t.Errorf("shards=%d: backwards tick must fail", shards)
		}
		if _, err := s.Snapshot(Query{Rho: 1, L: 60, At: 2}, FR); err == nil {
			t.Errorf("shards=%d: query before now must be rejected", shards)
		}
	}
}

func TestCostAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.BufferPages = 2 // force misses
	cfg.IOCharge = 10 * time.Millisecond
	s, _ := loadServer(t, cfg, 3000, 8)
	q := Query{Rho: relRho(3000, 1), L: 60, At: 0}
	r, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates > 0 && r.IOs == 0 {
		t.Error("FR with candidates over a tiny buffer must incur I/O")
	}
	if r.IOTime != time.Duration(r.IOs)*cfg.IOCharge {
		t.Errorf("IOTime %v inconsistent with IOs %d", r.IOTime, r.IOs)
	}
	if r.Total() != r.CPU+r.IOTime {
		t.Error("Total must be CPU + IOTime")
	}
	// PA touches no pages.
	p, err := s.Snapshot(q, PA)
	if err != nil {
		t.Fatal(err)
	}
	if p.IOs != 0 {
		t.Errorf("PA incurred %d I/Os, want 0", p.IOs)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		FR: "FR", PA: "PA", DHOptimistic: "DH-opt", DHPessimistic: "DH-pess",
		BruteForce: "BF", Method(42): "Method(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestFRSupportsMultipleEdgeLengths(t *testing.T) {
	// Unlike PA, FR answers queries for any l >= 2*lc at query time.
	s, _ := loadServer(t, testConfig(), 1500, 9)
	for _, l := range []float64{40, 60, 100, 250} {
		q := Query{Rho: relRho(1500, 2), L: l, At: 0}
		fr, err := s.Snapshot(q, FR)
		if err != nil {
			t.Fatalf("l=%g: %v", l, err)
		}
		bf, err := s.Snapshot(q, BruteForce)
		if err != nil {
			t.Fatal(err)
		}
		if d := fr.Region.DifferenceArea(bf.Region) + bf.Region.DifferenceArea(fr.Region); d > 1e-6 {
			t.Fatalf("l=%g: FR and BF differ by %g", l, d)
		}
	}
}
