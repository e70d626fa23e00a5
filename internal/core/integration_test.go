package core

import (
	"math"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/motion"
)

// TestEndToEndPipeline is the repository's widest integration test: a
// 10K-object road-network workload streamed through a history-keeping
// server, with every query method cross-checked, a rebuild from the live set
// in the middle, and past-snapshot reconstruction at the end. Skipped under
// -short.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	cfg := testConfig()
	cfg.KeepHistory = true
	cfg.BufferPages = 256

	gcfg := datagen.DefaultConfig(10000)
	gcfg.Seed = 99
	gen, err := datagen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Load(gen.InitialStates()); err != nil {
		t.Fatal(err)
	}

	var earlyRegionArea float64
	var earlyTick motion.Tick
	for tick := 0; tick < 15; tick++ {
		ups := gen.Advance()
		if err := srv.Tick(gen.Now(), ups); err != nil {
			t.Fatal(err)
		}
		if tick == 4 {
			earlyTick = srv.Now()
			r, err := srv.Snapshot(Query{Rho: relRho(10000, 2), L: 60, At: earlyTick}, BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			earlyRegionArea = r.Region.Area()
		}
		if tick == 8 {
			// A server rebuilt from the live set mid-stream answers
			// identically.
			rebuilt := rebuild(t, srv)
			q := Query{Rho: relRho(10000, 3), L: 60, At: srv.Now() + 10}
			a, err := srv.Snapshot(q, FR)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Snapshot(q, FR)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, "rebuilt FR", a, b)
		}
	}

	// All methods at a future timestamp: exactness and bracketing.
	q := Query{Rho: relRho(10000, 2), L: 60, At: srv.Now() + 20}
	results := map[Method]*Result{}
	for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce} {
		r, err := srv.Snapshot(q, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[m] = r
	}
	exact := results[BruteForce].Region
	if d := results[FR].Region.DifferenceArea(exact) + exact.DifferenceArea(results[FR].Region); d > 1e-6 {
		t.Fatalf("FR != BF by area %g", d)
	}
	if d := results[DHPessimistic].Region.DifferenceArea(exact); d > 1e-6 {
		t.Errorf("pessimistic DH exceeds exact by %g", d)
	}
	if d := exact.DifferenceArea(results[DHOptimistic].Region); d > 1e-6 {
		t.Errorf("optimistic DH misses exact by %g", d)
	}
	ea := exact.Area()
	if ea > 0 {
		fp := results[PA].Region.DifferenceArea(exact) / ea
		fn := exact.DifferenceArea(results[PA].Region) / ea
		t.Logf("integration PA accuracy: r_fp=%.3f r_fn=%.3f", fp, fn)
		if fp > 1.5 || fn > 0.9 {
			t.Errorf("PA wildly off: fp=%g fn=%g", fp, fn)
		}
	}

	// Historical reconstruction at the early tick matches what was measured
	// live.
	past, err := srv.PastSnapshot(Query{Rho: relRho(10000, 2), L: 60, At: earlyTick})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(past.Region.Area()-earlyRegionArea) > 1e-6 {
		t.Fatalf("past reconstruction area %g, live was %g", past.Region.Area(), earlyRegionArea)
	}
}
