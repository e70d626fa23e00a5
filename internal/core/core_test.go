package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
	"pdr/internal/telemetry"
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
	// NaN passes every range comparison; ±Inf passes the sign checks.
	for _, q := range []Query{{Rho: math.NaN(), L: 60}, {Rho: math.Inf(1), L: 60}, {Rho: 1, L: math.Inf(1)}, {Rho: 1, L: math.NaN()}} {
		if _, err := s.Snapshot(q, FR); err == nil {
			t.Errorf("rho=%g l=%g must be rejected", q.Rho, q.L)
		}
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

// relRho is the paper's relative threshold over the default 1000 x 1000
// area.
func relRho(n int, varrho float64) float64 {
	return RelativeThreshold(n, varrho, DefaultConfig().Area)
}

// A snapshot refuses, before it computes, a query whose parameters,
// timestamp, PA l or histogram cell rule out an answer: each refusal names
// its reason, reads no page and counts no served query. An interval starting
// at the same query refuses it with the same error.
func TestSnapshotRefusals(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 500, 3) // l=60 surfaces; cells of 20
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	s.SetMetrics(met)
	now := s.Now()
	end := now + s.Horizon()
	rho := relRho(500, 1)
	for _, c := range []struct {
		q    Query
		m    Method
		want string // a substring of the refusal; "" answers
	}{
		{q: Query{Rho: rho, L: 60, At: now}, m: FR},
		{q: Query{Rho: rho, L: 60, At: now + 5}, m: PA},
		{q: Query{Rho: rho, L: 40, At: now}, m: DHPessimistic},
		{q: Query{Rho: rho, L: 30, At: now}, m: BruteForce},
		{q: Query{Rho: rho, L: 45, At: now}, m: PA, want: "PA surfaces are built for l=60, query asked l=45"},
		{q: Query{Rho: rho, L: 30, At: now}, m: FR, want: "cell edge 20 exceeds l/2 = 15"},
		{q: Query{Rho: rho, L: 30, At: now}, m: DHOptimistic, want: "cell edge 20 exceeds l/2 = 15"},
		{q: Query{Rho: -1, L: 60, At: now}, m: FR, want: "negative density threshold -1"},
		{q: Query{Rho: rho, L: 60, At: end + 1}, m: PA, want: fmt.Sprintf("query time %d outside [%d, %d]", end+1, now, end)},
		{q: Query{Rho: rho, L: 60, At: now}, m: Method(99), want: "unknown method 99"},
	} {
		pool := s.PoolStats()
		served := met.QueriesServed()
		_, err := s.Snapshot(c.q, c.m)
		if (err != nil) != (c.want != "") || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("Snapshot(%+v, %v) = %v, want refusal %q", c.q, c.m, err, c.want)
		}
		if err != nil && (s.PoolStats() != pool || !reflect.DeepEqual(met.QueriesServed(), served)) {
			t.Errorf("refused Snapshot(%+v, %v) moved the pool or the query counters", c.q, c.m)
		}
		if _, ierr := s.Interval(c.q, c.q.At+2, c.m); (ierr == nil) != (err == nil) || (err != nil && ierr.Error() != err.Error()) {
			t.Errorf("Interval(%+v, %d, %v) = %v, but Snapshot refuses with %v", c.q, c.q.At+2, c.m, ierr, err)
		}
	}
}

func TestRelativeThreshold(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	if got := RelativeThreshold(500000, 1, area); got != 0.5 {
		t.Errorf("RelativeThreshold(500K, 1) = %g, want 0.5 (paper: rho in [0.5, 2.5] for CH500K)", got)
	}
	if got := RelativeThreshold(500000, 5, area); got != 2.5 {
		t.Errorf("RelativeThreshold(500K, 5) = %g, want 2.5", got)
	}
}

func TestParseMethodEdgeCases(t *testing.T) {
	cases := []struct {
		in      string
		want    Method
		wantErr bool
	}{
		{"", FR, false},
		{"fr", FR, false},
		{"FR", FR, false}, // case-insensitive
		{"Pa", PA, false},
		{"dh-opt", DHOptimistic, false},
		{"DH-PESS", DHPessimistic, false},
		{"bf", BruteForce, false},
		{"dh", 0, true},
		{"brute", 0, true},
		{"dhopt", 0, true},
		{" fr", 0, true}, // no trimming: the URL layer already decoded
	}
	for _, c := range cases {
		got, err := ParseMethod(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseMethod(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMethod(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Every method round-trips through its name.
	for m := FR; m <= BruteForce; m++ {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
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
	s, _ := loadServer(t, testConfig(), 10, 7)
	st := motion.State{ID: 3, Pos: geom.Point{X: 1, Y: 1}, Ref: 0}
	// Deleting a state that does not match the live one fails.
	if err := s.Apply(motion.NewDelete(st, 0)); err == nil {
		t.Error("mismatched delete must fail")
	}
	// Deleting an unknown object fails.
	unknown := motion.State{ID: 9999, Pos: geom.Point{X: 1, Y: 1}, Ref: 0}
	if err := s.Apply(motion.NewDelete(unknown, 0)); err == nil {
		t.Error("unknown delete must fail")
	}
	// Double insert fails; the rejections above and here changed nothing,
	// so the matching delete still succeeds.
	fresh := motion.State{ID: 5000, Pos: geom.Point{X: 2, Y: 2}, Ref: 0}
	if err := s.Apply(motion.NewInsert(fresh)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(motion.NewInsert(fresh)); err == nil {
		t.Error("double insert must fail")
	}
	if err := s.Apply(motion.NewDelete(fresh, 0)); err != nil {
		t.Errorf("valid delete rejected: %v", err)
	}
	// Time cannot move backwards, and queries cannot precede the clock.
	if err := s.Tick(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(3, nil); err == nil {
		t.Error("backwards tick must fail")
	}
	if _, err := s.Snapshot(Query{Rho: 1, L: 60, At: 2}, FR); err == nil {
		t.Error("query before now must be rejected")
	}
}

// clusterServer is a server holding twelve parked objects at one point,
// one clock tick after they were loaded, and the threshold rho that exactly
// twelve objects in one l = 60 square reach.
func clusterServer(t *testing.T) (*Server, []motion.State, float64) {
	t.Helper()
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var objs []motion.State
	for i := 0; i < 12; i++ {
		objs = append(objs, motion.State{ID: motion.ObjectID(i + 1), Pos: geom.Point{X: 510, Y: 510}})
	}
	if err := s.Load(objs); err != nil {
		t.Fatal(err)
	}
	if err := s.Tick(1, nil); err != nil {
		t.Fatal(err)
	}
	return s, objs, 12.0 / (60 * 60)
}

// agreesWithOracle asserts FR equals the brute force at every timestamp of
// [now, now+horizon] and returns the brute force's area at now.
func agreesWithOracle(t *testing.T, s *Server, rho float64, horizon motion.Tick) float64 {
	t.Helper()
	var area float64
	for qt := s.Now(); qt <= s.Now()+horizon; qt++ {
		q := Query{Rho: rho, L: 60, At: qt}
		fr, err := s.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := s.Snapshot(q, BruteForce)
		if err != nil {
			t.Fatal(err)
		}
		if !samePointSet(fr.Region, bf.Region) {
			t.Fatalf("t=%d: FR area %g, the brute force's %g", qt, fr.Area, bf.Area)
		}
		if qt == s.Now() {
			area = bf.Area
		}
	}
	return area
}

// TestDeleteEndsAtTheClock: a delete stamped after the clock ends its
// movement at the clock, not at its stamp — no ghost of the object stays in
// the histogram for [now, stamp) — and the caller's record is left as sent.
func TestDeleteEndsAtTheClock(t *testing.T) {
	s, objs, rho := clusterServer(t)
	ups := []motion.Update{motion.NewDelete(objs[0], s.Now()+5)}
	if err := s.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	if ups[0].At != s.Now()+5 {
		t.Fatalf("the caller's delete was rewritten to end at %d", ups[0].At)
	}
	if area := agreesWithOracle(t, s, rho, 8); area != 0 {
		t.Fatalf("eleven objects make a dense region of area %g", area)
	}
}

// TestInsertAfterTheClockRejected: an insert referenced after the clock is
// rejected — the valid prefix before it stays — so FR and the brute force
// never see a movement that has not started.
func TestInsertAfterTheClockRejected(t *testing.T) {
	s, objs, rho := clusterServer(t)
	early := motion.State{ID: 100, Pos: geom.Point{X: 100, Y: 100}, Ref: s.Now()}
	late := objs[0]
	late.ID, late.Ref = 101, s.Now()+5
	err := s.ApplyBatch([]motion.Update{
		motion.NewDelete(objs[0], s.Now()),
		motion.NewInsert(early),
		motion.NewInsert(late),
	})
	if area := agreesWithOracle(t, s, rho, 8); area != 0 {
		t.Fatalf("eleven objects at the point make a dense region of area %g", area)
	}
	var partial *PartialError
	if !errors.As(err, &partial) || partial.Applied != 2 {
		t.Fatalf("insert referenced after the clock: err = %v, want a *PartialError after 2 records", err)
	}
	if got := s.NumObjects(); got != 12 {
		t.Fatalf("NumObjects = %d after the partial apply, want 12", got)
	}
}

func TestCostAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.BufferPages = 2 // force misses
	s, _ := loadServer(t, cfg, 3000, 8)
	q := Query{Rho: relRho(3000, 1), L: 60, At: 0}
	r, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates > 0 && r.IOs == 0 {
		t.Error("FR with candidates over a tiny buffer must incur I/O")
	}
	if r.IOTime != time.Duration(r.IOs)*storage.DefaultRandomIO {
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
