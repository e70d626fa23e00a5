package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// TestPoolReuseBitIdentical is the pool-churn race stress: the query path
// shares sync.Pools (Chebyshev evaluation scratch, DH filter results and
// prefix sums, sweep buffers, scatter/gather slices, per-window point
// buffers), so concurrent queries continuously recycle each other's buffers. Every answer
// must still be bit-identical to the single-threaded reference — a stale or
// under-cleared pooled buffer shows up here as a diverging region. Run under
// -race via check.sh.
func TestPoolReuseBitIdentical(t *testing.T) {
	// The case keeps the subtest name it had when the engine could be split
	// into partitions; there is one engine now.
	t.Run("shards=1", func(t *testing.T) {
		cfg := testConfig()
		cfg.Workers = 3
		cfg.KeepHistory = true
		cfg.CacheBytes = 0 // repeats must recompute, not replay a cached region
		s, g := loadServer(t, cfg, 1500, 7)
		// Two ticks of updates fill the archive, so the past job has segments.
		for i := 0; i < 2; i++ {
			ups := g.Advance()
			if err := s.Tick(g.Now(), ups); err != nil {
				t.Fatal(err)
			}
		}
		now := s.Now()

		type job struct {
			q      Query
			method Method
			until  motion.Tick // interval query when > q.At
			past   bool
		}
		rho := relRho(1500, 3)
		var jobs []job
		for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce} {
			for tick := 0; tick < 2; tick++ {
				jobs = append(jobs, job{q: Query{Rho: rho, L: 60, At: now + motion.Tick(tick)}, method: m})
			}
		}
		jobs = append(jobs,
			job{q: Query{Rho: rho, L: 60, At: now}, method: FR, until: now + 3},
			job{q: Query{Rho: rho, L: 60, At: now + 1}, method: BruteForce, until: now + 4},
			job{q: Query{Rho: rho, L: 60, At: now - 1}, past: true},
		)

		run := func(j job) (*Result, error) {
			switch {
			case j.past:
				return s.PastSnapshot(j.q)
			case j.until > j.q.At:
				return s.Interval(j.q, j.until, j.method)
			default:
				return s.Snapshot(j.q, j.method)
			}
		}
		want := make([]geom.Region, len(jobs))
		for i, j := range jobs {
			res, err := run(j)
			if err != nil {
				t.Fatalf("reference job %d: %v", i, err)
			}
			want[i] = res.Region
		}

		const goroutines = 6
		const rounds = 2
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for off := range jobs {
						i := (off + g) % len(jobs) // stagger so pools cross-pollinate
						res, err := run(jobs[i])
						if err != nil {
							errc <- fmt.Errorf("goroutine %d job %d: %w", g, i, err)
							return
						}
						if !reflect.DeepEqual(res.Region, want[i]) {
							errc <- fmt.Errorf("goroutine %d job %d (%v at t=%d): region diverged from single-threaded reference",
								g, i, jobs[i].method, jobs[i].q.At)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
	})
}
