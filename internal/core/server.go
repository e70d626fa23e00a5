// Package core is the PDR query engine — the paper's primary contribution
// assembled over the substrates: a Server ingests the location-update stream
// and maintains, for every timestamp in the horizon [now, now+H],
//
//   - a TPR-tree over the predicted trajectories (for the refinement step),
//   - a density histogram (for the filtering step and the DH baselines), and
//   - a grid of Chebyshev density surfaces (for the approximation method),
//
// and answers snapshot and interval pointwise-dense-region queries by any of
// the paper's methods: FR (exact filtering-refinement), PA (Chebyshev
// approximation), optimistic/pessimistic DH, or a brute-force global sweep
// used as ground truth.
//
// Population contract: an object whose predicted position lies outside the
// monitored area at timestamp t does not exist at t. All methods apply the
// same rule, so FR and the brute force return identical regions.
//
// # One engine, N partitions
//
// The monitored plane is cut along the Z-order curve into Config.Shards
// contiguous territories (default one: the whole plane). Each territory is a
// partition — its own histogram, TPR-tree, buffer pool and archive — and an
// object belongs to the partition that owns its reported position (its
// primary); a trajectory that can reach other territories is additionally
// registered, index-only, as a replica there. One directory holds every live
// object's movement and partitions, one Chebyshev surface serves PA, and one
// epoch-keyed cache memoizes answers. There is one query pipeline and one write path;
// the partition count is a loop bound, never a branch.
//
// Locking protocol. The only engine locks are one RWMutex per partition
// (rank "shard"), the surface lock and the directory's bucket locks; the
// partitions themselves are unlocked. Queries read-lock every partition, in
// ascending index order, for their whole evaluation, so a scatter observes
// one consistent cut of the stream. Tick and Load write-lock every partition;
// Apply write-locks only the partitions that hold the object, again
// ascending, so writers to different territories do not serialize. The global
// acquisition order, checked by pdrvet's lockorder analyzer, is
//
//	service 10 → shard 20 → surface 30 → shard-registry 40
//
// One fan-out per write. Tick and Load route and admit their records in
// stream order, then hand the worker pool len(partitions) + H+1 independent
// items in a single ForEach: each partition's list of records, then each
// timestamp slot of the surface (pa.Surface.ApplySlot over the whole admitted
// stream). The writer takes the surface lock before the fan-out and releases
// it after; the helpers it hands slots to write disjoint slots under it.
// Workers: 1 runs the same items inline, in index order.
//
// Partial writes. A write that holds a record the directory rejects — an
// insert of a live object, a delete that does not name the live movement —
// is neither rolled back nor skipped past: the valid prefix before the bad
// record is applied in full, the bad record and everything after it change
// nothing, and the epoch is bumped either way, so no cached answer survives
// it. Tick and Load report the prefix's length in a *PartialError (the HTTP
// 409 carries it as "applied"); Apply is one record, so a rejected one
// changes nothing and leaves the epoch alone.
//
// Exactness. Answers are bit-identical at every partition and worker count:
//
//   - FR / DH: the per-partition histograms count disjoint primary
//     populations in int32 counters, which add exactly, so dh.FilterMerged
//     reproduces one histogram's marks. A refinement row run gathers from
//     every partition its grown bounding box intersects; index searches are
//     exact, replicas are deduplicated by object ID, and the plane sweep
//     depends only on the resulting point multiset.
//   - PA: Chebyshev coefficient sums are floating-point and order-sensitive,
//     so the one surface is fed the whole stream in arrival order — per
//     timestamp slot: slots share no coefficient, each is one work item, and
//     every series receives its increments in stream order at any worker
//     count. (Bit-identical within one binary; across kernels the
//     coefficients are bounded, not equal — DESIGN.md, "PA tolerance
//     contract".)
//   - BruteForce / PastSnapshot: the directory holds each live object once,
//     and the archives hold primaries only and are disjoint, so the gathered
//     points do not depend on the partitioning.
//
// docs/PERFORMANCE.md ("Sharding") has the partition key, the straddler rule
// and the measured cost of each.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pdr/internal/cache"
	"pdr/internal/dh"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/pa"
	"pdr/internal/parallel"
	"pdr/internal/storage"
)

// Config parameterizes a Server. Zero fields fall back to the paper's
// defaults where one exists.
type Config struct {
	// Area is the monitored plane (the paper: 1,000 x 1,000 miles).
	Area geom.Rect
	// U is the maximum update interval; W the prediction window. The
	// maintenance horizon is H = U + W (paper defaults: 60 and 30).
	U, W motion.Tick
	// HistM is the density histogram resolution per axis (HistM^2 cells;
	// paper default 10,000 total -> 100).
	HistM int
	// PAGrid is the per-axis local polynomial count (paper default 100
	// polynomials -> 10); PADegree the Chebyshev total degree (default 5);
	// PAMD the evaluation resolution floor (default 256).
	PAGrid, PADegree, PAMD int
	// L is the fixed neighborhood edge the PA surfaces are built for
	// (paper: 30 or 60). FR accepts any l >= 2*Area/HistM at query time.
	L float64
	// BufferPages caps each partition's TPR-tree buffer pool (0 = unlimited;
	// the paper sizes it at 10% of the dataset).
	BufferPages int
	// PageSize is the tree page size in bytes (default 4 KB).
	PageSize int
	// IOCharge is the modelled cost per physical page access (default the
	// paper's 10 ms).
	IOCharge time.Duration
	// KeepHistory archives superseded movements so PastSnapshot can answer
	// PDR queries for past timestamps (memory grows with the update
	// volume).
	KeepHistory bool
	// Workers bounds the query worker pool used at the engine's fan-out
	// points (per-timestamp snapshots of an interval query, per-run
	// refinement sweeps). 0 selects GOMAXPROCS; 1 runs every query
	// sequentially. Answers are identical at every setting (see
	// docs/PERFORMANCE.md for the determinism argument).
	Workers int
	// Shards is the number of space partitions, 0 (one partition) to
	// MaxShards. Writes lock only the partitions that hold the object, so
	// more partitions let writers to different parts of the plane proceed
	// together; answers are identical at every setting (see the package
	// comment and docs/PERFORMANCE.md, "Sharding").
	Shards int
	// CacheBytes bounds the epoch-versioned snapshot result cache
	// (approximate resident bytes). 0 (the default) disables caching and
	// keeps the pre-cache behavior; when set, repeated snapshot queries,
	// interval fan-outs, and monitor re-evaluations reuse per-timestamp
	// answers until the next mutation supersedes them (see
	// docs/PERFORMANCE.md, "Result cache").
	CacheBytes int64
	// DisablePA skips building and maintaining the Chebyshev surface: PA
	// queries are rejected and Surface returns nil.
	DisablePA bool
}

// DefaultConfig returns the paper's default experimental setup (Table 1,
// with OCR-lost digits reconstructed as documented in DESIGN.md).
func DefaultConfig() Config {
	return Config{
		Area:     geom.NewRect(0, 0, 1000, 1000),
		U:        60,
		W:        30,
		HistM:    100,
		PAGrid:   10,
		PADegree: 5,
		PAMD:     256,
		L:        30,
		IOCharge: storage.DefaultRandomIO,
	}
}

// Server maintains all query structures over the update stream. It is safe
// for concurrent use: any number of queries (Snapshot, Interval,
// PastSnapshot, FilterMarks, Recommend, Save) run together, and mutations
// (Tick, Apply, Load) exclude only the queries and writers that need the
// same partitions. The package comment states the locking protocol.
type Server struct {
	cfg    Config // effective: defaults resolved
	router *router
	parts  []*partition
	hists  []*dh.Histogram // parts[i].hist, in partition order, for dh.FilterMerged
	par    *parallel.Pool  // bounded fan-out workers (cfg.Workers)
	qcache *cache.Cache    // snapshot result cache; nil when CacheBytes is 0
	met    *Metrics        // nil unless SetMetrics was called (pre-traffic)
	pmet   *partitionMetrics

	// pmu[i] guards parts[i]; see the package comment for the protocol.
	pmu []sync.RWMutex // pdr:lockrank shard 20

	surfMu sync.RWMutex // pdr:lockrank surface 30
	surf   *pa.Surface  // the one Chebyshev surface; nil when DisablePA

	dir directory

	// epoch counts mutations (Tick/Apply/Load). Cached snapshot answers are
	// keyed by it, so bumping the epoch invalidates every prior answer in
	// O(1) without touching the cache itself.
	epoch      atomic.Uint64
	now        atomic.Int64 // the server clock
	histPrimed atomic.Bool  // the histogram window phase is fixed (see prime)
}

// NewServer builds an empty server of cfg.Shards partitions.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Area.IsEmpty() {
		return nil, fmt.Errorf("core: empty area")
	}
	if cfg.U <= 0 || cfg.W < 0 {
		return nil, fmt.Errorf("core: bad intervals U=%d W=%d", cfg.U, cfg.W)
	}
	if cfg.HistM <= 0 {
		cfg.HistM = 100
	}
	if cfg.PAGrid <= 0 {
		cfg.PAGrid = 10
	}
	if cfg.PADegree <= 0 {
		cfg.PADegree = 5
	}
	if cfg.PAMD <= 0 {
		cfg.PAMD = 256
	}
	if cfg.L <= 0 {
		cfg.L = 30
	}
	if cfg.IOCharge == 0 {
		cfg.IOCharge = storage.DefaultRandomIO
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	router, err := newRouter(cfg.Area, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		router: router,
		parts:  make([]*partition, cfg.Shards),
		hists:  make([]*dh.Histogram, cfg.Shards),
		pmu:    make([]sync.RWMutex, cfg.Shards),
		par:    parallel.New(cfg.Workers),
		qcache: cache.New(cfg.CacheBytes),
	}
	for i := range s.parts {
		p, err := newPartition(cfg)
		if err != nil {
			return nil, err
		}
		s.parts[i] = p
		s.hists[i] = p.hist
	}
	if !cfg.DisablePA {
		s.surf, err = pa.New(pa.Config{
			Area: cfg.Area, G: cfg.PAGrid, Degree: cfg.PADegree,
			Horizon: cfg.U + cfg.W, L: cfg.L, MD: cfg.PAMD,
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Config returns the server's effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Horizon returns H = U + W.
func (s *Server) Horizon() motion.Tick { return s.cfg.U + s.cfg.W }

// Now returns the current server time.
func (s *Server) Now() motion.Tick { return motion.Tick(s.now.Load()) }

// NumObjects returns the live object count (replica registrations are not
// live and are not counted).
func (s *Server) NumObjects() int { return int(s.dir.count.Load()) }

// Workers returns the effective query worker-pool size.
func (s *Server) Workers() int { return s.par.Workers() }

// Epoch returns the mutation counter cached answers are keyed by. It
// increments on every Tick, Load and admitted Apply.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Cache exposes the snapshot result cache (nil when Config.CacheBytes is 0),
// so embedders can attach telemetry via cache.NewMetrics.
func (s *Server) Cache() *cache.Cache { return s.qcache }

// CacheStats returns the result cache counters (zeros when caching is off).
func (s *Server) CacheStats() cache.Stats { return s.qcache.Stats() }

// Surface exposes the Chebyshev density surface (read-only use; nil when
// Config.DisablePA).
func (s *Server) Surface() *pa.Surface { return s.surf }

// SurfaceBytes returns the Chebyshev coefficient footprint (0 when PA is
// disabled).
func (s *Server) SurfaceBytes() int {
	if s.surf == nil {
		return 0
	}
	return s.surf.MemoryBytes()
}

// Contours extracts iso-density contour segments from the Chebyshev surface
// (errors when Config.DisablePA).
func (s *Server) Contours(at motion.Tick, level float64, res int) ([]pa.ContourSegment, error) {
	if s.surf == nil {
		return nil, errPADisabled
	}
	s.surfMu.RLock()
	defer s.surfMu.RUnlock()
	return s.surf.Contours(at, level, res)
}

var errPADisabled = errors.New("core: PA surfaces are disabled on this server (Config.DisablePA)")

// PoolStats sums the partitions' buffer-pool I/O counters.
func (s *Server) PoolStats() storage.Stats {
	var total storage.Stats
	for _, p := range s.parts {
		st := p.pool.Stats()
		total.Reads += st.Reads
		total.Writes += st.Writes
		total.Hits += st.Hits
	}
	return total
}

// PoolPages returns the number of pages the buffer pools manage.
func (s *Server) PoolPages() int {
	total := 0
	for _, p := range s.parts {
		total += p.pool.NumPages()
	}
	return total
}

// DropBufferPools empties every buffer pool, so the next query pays cold
// I/O — the state the paper's I/O experiments measure from.
func (s *Server) DropBufferPools() {
	for _, p := range s.parts {
		p.pool.Drop()
	}
}

// HistogramBytes returns the density histograms' counter footprint.
func (s *Server) HistogramBytes() int {
	total := 0
	for _, h := range s.hists {
		total += h.MemoryBytes()
	}
	return total
}

// LiveStates returns every live object's current movement, ordered by ID.
func (s *Server) LiveStates() []motion.State {
	s.rlockAll()
	defer s.runlockAll()
	return s.liveStatesLocked()
}

func (s *Server) liveStatesLocked() []motion.State {
	states := make([]motion.State, 0, s.NumObjects())
	s.dir.each(func(st motion.State) { states = append(states, st) })
	slices.SortFunc(states, func(a, b motion.State) int { return cmp.Compare(a.ID, b.ID) })
	return states
}

// ArchiveSpan returns the archived movement segments' count and the tick
// range [lo, hi) they cover (zeros unless Config.KeepHistory).
func (s *Server) ArchiveSpan() (segments int, lo, hi motion.Tick) {
	s.rlockAll()
	defer s.runlockAll()
	for _, p := range s.parts {
		if p.hst == nil || p.hst.Len() == 0 {
			continue
		}
		plo, phi := p.hst.Span()
		if segments == 0 || plo < lo {
			lo = plo
		}
		if segments == 0 || phi > hi {
			hi = phi
		}
		segments += p.hst.Len()
	}
	return segments, lo, hi
}
