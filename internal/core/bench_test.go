package core

import (
	"math/rand"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// BenchmarkServerTick measures end-to-end update ingestion on pdrserve's
// engine (DefaultConfig with KeepHistory): one tick of a 20,000-object
// road-network stream, 8 ticks into it, applied to histogram, index, archive
// and surface (the stream itself is generated untimed); ns/update is per
// record. The DisablePA case has no surface, so
// it times the histogram, index and archive item alone — the item a tick's
// fan-out waits for.
func BenchmarkServerTick(b *testing.B) {
	for _, disablePA := range []bool{false, true} {
		name := "PA"
		if disablePA {
			name = "DisablePA"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.KeepHistory = true
			cfg.DisablePA = disablePA
			s, err := NewServer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			gcfg := datagen.DefaultConfig(20000)
			gcfg.Seed = 1
			g, err := datagen.New(gcfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Load(g.InitialStates()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				ups := g.Advance()
				if err := s.Tick(g.Now(), ups); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			records := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer() // the stream is generated untimed
				ups := g.Advance()
				b.StartTimer()
				if err := s.Tick(g.Now(), ups); err != nil {
					b.Fatal(err)
				}
				records += len(ups)
			}
			if records > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/update")
			}
		})
	}
}

// applyOp is BenchmarkServerApply's call, a between-tick write on
// pdrserve's engine (DefaultConfig with KeepHistory), 20,000 objects 8 ticks
// into their stream: bench/'s /v1/apply request, one ApplyBatch of two
// records — the insert of a fresh object at the clock and the delete of the
// one inserted eight applies earlier.
func applyOp(tb testing.TB) func() {
	cfg := DefaultConfig()
	cfg.KeepHistory = true
	s, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(20000)
	gcfg.Seed = 1
	g, err := datagen.New(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Load(g.InitialStates()); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	next := motion.ObjectID(1 << 40)
	fresh := func() motion.State {
		next++
		return motion.State{
			ID:  next,
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Vel: geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1},
			Ref: s.Now(),
		}
	}
	var inFlight []motion.State
	for i := 0; i < 8; i++ {
		st := fresh()
		if err := s.Apply(motion.NewInsert(st)); err != nil {
			tb.Fatal(err)
		}
		inFlight = append(inFlight, st)
	}
	batch := make([]motion.Update, 2)
	return func() {
		st := fresh()
		batch[0], batch[1] = motion.NewInsert(st), motion.NewDelete(inFlight[0], s.Now())
		inFlight = append(inFlight[1:], st)
		if err := s.ApplyBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkServerApply(b *testing.B) {
	op := applyOp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestServerApplyAllocs pins BenchmarkServerApply at zero allocations a call,
// over 2,000 calls: the write runs its two items inline and allocates nothing
// but the structures' amortized growth (handing them to the worker pool
// reads 9).
func TestServerApplyAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(2000, applyOp(t)); n != 0 {
		t.Errorf("BenchmarkServerApply: %v allocs/op, want 0", n)
	}
}

// BenchmarkSnapshotFR and BenchmarkSnapshotPA measure steady-state query
// latency at a fixed scale.
func BenchmarkSnapshotFR(b *testing.B) {
	benchSnapshot(b, FR)
}

func BenchmarkSnapshotPA(b *testing.B) {
	benchSnapshot(b, PA)
}

// BenchmarkSnapshotFRClasses is exact-read's snapshot mix in process: the
// seven l x varrho classes bench/ cycles through, over a 20,000-object
// population 8 ticks into its stream, each class at its own timestamp inside
// the prediction window. One op is the seven queries.
func BenchmarkSnapshotFRClasses(b *testing.B) {
	const n = 20000
	cfg := DefaultConfig()
	cfg.DisablePA = true
	s, _ := classesServer(b, cfg, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		askFRClasses(b, s, n)
	}
}

// BenchmarkCachedFRClasses re-asks exact-read's seven classes between
// writes, with the result cache off and on (64 MiB), over the population of
// BenchmarkSnapshotFRClasses. One op is a tick of the stream (untimed), then
// the seven classes asked and asked again. It reports the time per query
// and, at the end, the cache's hit ratio and resident bytes: the resident
// set after 20 ticks under -benchtime=20x.
func BenchmarkCachedFRClasses(b *testing.B) {
	const n = 20000
	for _, budget := range []int64{0, 64 << 20} {
		name := "off"
		if budget > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.DisablePA = true
			cfg.CacheBytes = budget
			s, g := classesServer(b, cfg, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ups := g.Advance()
				if err := s.Tick(g.Now(), ups); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				askFRClasses(b, s, n)
				askFRClasses(b, s, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*len(frClasses)*b.N), "ns/query")
			st := s.CacheStats()
			b.ReportMetric(st.HitRatio(), "hit-ratio")
			b.ReportMetric(float64(st.Bytes), "resident-B")
		})
	}
}

// frClasses are the l x varrho classes bench/'s exact queries cycle through.
var frClasses = [][2]float64{{30, 1}, {30, 3}, {30, 5}, {45, 3}, {60, 1}, {60, 3}, {60, 5}}

// askFRClasses asks each of frClasses once, the k-th at now+4k, inside the
// prediction window.
func askFRClasses(b *testing.B, s *Server, n int) {
	for k, c := range frClasses {
		q := Query{Rho: relRho(n, c[1]), L: c[0], At: s.Now() + motion.Tick(4*k)}
		if _, err := s.Snapshot(q, FR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotPAClasses is approx-read's snapshot mix in process: the
// three varrho classes bench/ cycles through at the surfaces' l = 30, over
// the same population as BenchmarkSnapshotFRClasses, spread over the
// prediction window. One op is the three queries.
func BenchmarkSnapshotPAClasses(b *testing.B) {
	const n = 20000
	s, _ := classesServer(b, DefaultConfig(), n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, varrho := range []float64{1, 3, 5} {
			q := Query{Rho: relRho(n, varrho), L: 30, At: s.Now() + motion.Tick(30*k)}
			if _, err := s.Snapshot(q, PA); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIntervalPA is approx-read's PA interval in process: l = 30,
// varrho = 3 and eight timestamps (at..at+7), over the population of
// BenchmarkSnapshotPAClasses, at four offsets spread over the workload's
// now+[0, 30). One op is the four intervals.
func BenchmarkIntervalPA(b *testing.B) {
	const n = 20000
	s, _ := classesServer(b, DefaultConfig(), n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range []motion.Tick{0, 10, 20, 29} {
			q := Query{Rho: relRho(n, 3), L: 30, At: s.Now() + off}
			if _, err := s.Interval(q, q.At+7, PA); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// classesServer loads n datagen objects (seed 1) into a server built from
// cfg and runs 8 ticks of their update stream; the generator goes on from
// there.
func classesServer(b *testing.B, cfg Config, n int) (*Server, *datagen.Generator) {
	b.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = 1
	g, err := datagen.New(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Load(g.InitialStates()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			b.Fatal(err)
		}
	}
	return s, g
}

func benchSnapshot(b *testing.B, m Method) {
	b.Helper()
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := datagen.DefaultConfig(20000)
	gcfg.Seed = 2
	g, err := datagen.New(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Load(g.InitialStates()); err != nil {
		b.Fatal(err)
	}
	q := Query{Rho: relRho(20000, 3), L: 60, At: 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(q, m); err != nil {
			b.Fatal(err)
		}
	}
}
