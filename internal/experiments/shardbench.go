package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/stopwatch"
)

// ShardPoint is the measurement at one partition count (core.Config.Shards).
// Shards=1 is the baseline the speedups are relative to.
type ShardPoint struct {
	Shards int `json:"shards"`
	// SnapshotNanos and IntervalNanos are best-of-Trials wall times for one
	// FR snapshot / one FR interval query.
	SnapshotNanos int64 `json:"snapshotNanos"`
	IntervalNanos int64 `json:"intervalNanos"`
	// MixedNanos is the best-of-Trials wall time for the mixed workload:
	// concurrent snapshot readers racing apply writers (see ShardBench
	// MixedReads/MixedWriters fields).
	MixedNanos int64 `json:"mixedNanos"`
	// Speedups are the one-partition point's wall time over this point's.
	SnapshotSpeedup float64 `json:"snapshotSpeedup"`
	IntervalSpeedup float64 `json:"intervalSpeedup"`
	MixedSpeedup    float64 `json:"mixedSpeedup"`
}

// ShardBench is one recorded sharding study: identical workload and queries
// against the engine at one partition and at N partitions. As with the
// other BENCH baselines the host facts are part of the record — shard
// scaling is contention relief, so on a single-core host the mixed curve is
// legitimately flat.
type ShardBench struct {
	Kind       string `json:"kind"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workload facts.
	N      int     `json:"n"`
	Seed   int64   `json:"seed"`
	L      float64 `json:"l"`
	Varrho float64 `json:"varrho"`
	Window int     `json:"window"`
	Trials int     `json:"trials"`
	// Mixed-workload shape: MixedWriters goroutines each apply
	// MixedWrites insert+delete pairs while MixedReaders goroutines each
	// run MixedReads snapshots.
	MixedWriters int `json:"mixedWriters"`
	MixedWrites  int `json:"mixedWrites"`
	MixedReaders int `json:"mixedReaders"`
	MixedReads   int `json:"mixedReads"`
	// Points are ordered by shard count; Points[0] (Shards=1) is the
	// baseline.
	Points []ShardPoint `json:"points"`
}

// ShardBenchParams configures a sharding study.
type ShardBenchParams struct {
	// Shards lists the shard widths to measure (the one-partition baseline
	// is always run first and is not listed).
	Shards []int
	// Window is the interval query width in ticks.
	Window int
	// Trials per point; the best wall time is kept to damp scheduler noise.
	Trials int
	// Mixed-workload shape; zero values take the defaults.
	MixedWriters, MixedWrites, MixedReaders, MixedReads int
}

// DefaultShardBenchParams matches the recorded BENCH_shard.json baseline.
func DefaultShardBenchParams() ShardBenchParams {
	return ShardBenchParams{
		Shards: []int{2, 4, 8}, Window: 8, Trials: 3,
		MixedWriters: 4, MixedWrites: 200, MixedReaders: 4, MixedReads: 20,
	}
}

// ShardBench measures query and mixed read/write wall time against shard
// count. Each point gets a freshly built, identically seeded engine, so
// buffer-pool warmth cannot favor later points.
func (r *Runner) ShardBench(bp ShardBenchParams) (*ShardBench, error) {
	if bp.Trials <= 0 {
		bp.Trials = 1
	}
	d := DefaultShardBenchParams()
	if bp.MixedWriters <= 0 {
		bp.MixedWriters = d.MixedWriters
	}
	if bp.MixedWrites <= 0 {
		bp.MixedWrites = d.MixedWrites
	}
	if bp.MixedReaders <= 0 {
		bp.MixedReaders = d.MixedReaders
	}
	if bp.MixedReads <= 0 {
		bp.MixedReads = d.MixedReads
	}
	const varrho = 3
	l := r.P.Ls[len(r.P.Ls)-1]
	out := &ShardBench{
		Kind: "shard", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		N: r.P.N, Seed: r.P.Seed, L: l, Varrho: varrho,
		Window: bp.Window, Trials: bp.Trials,
		MixedWriters: bp.MixedWriters, MixedWrites: bp.MixedWrites,
		MixedReaders: bp.MixedReaders, MixedReads: bp.MixedReads,
	}
	for _, n := range append([]int{1}, bp.Shards...) {
		pt, err := r.shardPoint(n, l, varrho, bp)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt)
	}
	base := out.Points[0]
	for i := range out.Points {
		p := &out.Points[i]
		if p.SnapshotNanos > 0 {
			p.SnapshotSpeedup = float64(base.SnapshotNanos) / float64(p.SnapshotNanos)
		}
		if p.IntervalNanos > 0 {
			p.IntervalSpeedup = float64(base.IntervalNanos) / float64(p.IntervalNanos)
		}
		if p.MixedNanos > 0 {
			p.MixedSpeedup = float64(base.MixedNanos) / float64(p.MixedNanos)
		}
	}
	return out, nil
}

func (r *Runner) shardPoint(shards int, l, varrho float64, bp ShardBenchParams) (ShardPoint, error) {
	pt := ShardPoint{Shards: shards}
	for t := 0; t < bp.Trials; t++ {
		cfg := ServerConfig(r.P)
		cfg.Shards = shards
		env, err := Build(r.P, cfg)
		if err != nil {
			return pt, err
		}
		e := env.S
		rho := RelRho(e.NumObjects(), varrho, e.Config().Area)
		q := core.Query{Rho: rho, L: l, At: e.Now()}

		sw := stopwatch.Start()
		if _, err := e.Snapshot(q, core.FR); err != nil {
			return pt, err
		}
		keepBest(&pt.SnapshotNanos, sw.Elapsed().Nanoseconds())

		sw = stopwatch.Start()
		if _, err := e.Interval(q, q.At+motion.Tick(bp.Window), core.FR); err != nil {
			return pt, err
		}
		keepBest(&pt.IntervalNanos, sw.Elapsed().Nanoseconds())

		ns, err := runMixed(e, q, bp)
		if err != nil {
			return pt, err
		}
		keepBest(&pt.MixedNanos, ns)
	}
	return pt, nil
}

func keepBest(dst *int64, ns int64) {
	if *dst == 0 || ns < *dst {
		*dst = ns
	}
}

// runMixed races apply writers against snapshot readers on one engine and
// returns the wall time for the whole batch to finish. Writers insert and
// delete fresh objects (the population is unchanged afterwards); readers
// answer FR snapshots spread over the prediction window. This is the
// contention regime partition-local write locks exist for: at one partition
// every write excludes every read.
func runMixed(e *core.Server, q core.Query, bp ShardBenchParams) (int64, error) {
	area := e.Config().Area
	now := e.Now()
	var wg sync.WaitGroup
	errc := make(chan error, bp.MixedWriters+bp.MixedReaders)
	sw := stopwatch.Start()
	for w := 0; w < bp.MixedWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Deterministic per-writer positions: a lattice walk across the
			// plane, disjoint IDs far above the workload's.
			for i := 0; i < bp.MixedWrites; i++ {
				st := motion.State{
					ID: motion.ObjectID(1<<40 + w*bp.MixedWrites + i),
					Pos: geom.Point{
						X: area.MinX + float64((w*bp.MixedWrites+i)%97)/97*area.Width(),
						Y: area.MinY + float64((w*bp.MixedWrites+i)%89)/89*area.Height(),
					},
					Vel: geom.Vec{X: float64(i%7) - 3, Y: float64(i%5) - 2},
					Ref: now,
				}
				if err := e.Apply(motion.NewInsert(st)); err != nil {
					errc <- err
					return
				}
				if err := e.Apply(motion.NewDelete(st, now)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < bp.MixedReaders; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			w := e.Config().W
			for i := 0; i < bp.MixedReads; i++ {
				rq := q
				rq.At = now + motion.Tick(int64(rd+i)%int64(w))
				if _, err := e.Snapshot(rq, core.FR); err != nil {
					errc <- err
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	ns := sw.Elapsed().Nanoseconds()
	close(errc)
	for err := range errc {
		return 0, err
	}
	return ns, nil
}

// WriteJSON records the study as indented JSON (BENCH_shard.json).
func (b *ShardBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// PrintShard renders a sharding study as a table.
func PrintShard(w io.Writer, b *ShardBench) error {
	r := newReport(w)
	r.linef("shard scaling (n=%d, l=%g, varrho=%g, window=%d, mixed %dx%d writes vs %dx%d reads) on NumCPU=%d GOMAXPROCS=%d\n",
		b.N, b.L, b.Varrho, b.Window, b.MixedWriters, b.MixedWrites, b.MixedReaders, b.MixedReads, b.NumCPU, b.GOMAXPROCS)
	r.text("shards\tsnapshot\tinterval\tmixed\tsnap-x\tint-x\tmixed-x")
	for _, p := range b.Points {
		r.linef("%d\t%s\t%s\t%s\t%.2fx\t%.2fx\t%.2fx\n", p.Shards,
			fmtNanos(p.SnapshotNanos), fmtNanos(p.IntervalNanos), fmtNanos(p.MixedNanos),
			p.SnapshotSpeedup, p.IntervalSpeedup, p.MixedSpeedup)
	}
	return r.flush()
}
