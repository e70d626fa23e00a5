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
// # One engine
//
// A Server holds one density histogram, one TPR-tree over its own buffer
// pool, one movement archive and one Chebyshev surface, plus a directory of
// every live object's current movement and one epoch-keyed cache of answers.
// There is one query pipeline and one write path.
//
// Locking protocol. The engine lock (rank "engine") is the one lock on
// engine state: it guards the histogram, the index, its pool, the archive,
// the surface and the directory. Queries read-lock it for their whole
// evaluation, so each observes one consistent cut of the stream; Tick, Load
// and Apply write-lock it. It is the only lock an HTTP query or write
// holds: the service takes none around it. The one lock ever held outside
// it is the standing-query monitor's, across a tick and its
// re-evaluations. The global acquisition order, checked by pdrvet's
// lockorder analyzer, is
//
//	monitor 10 → engine 20
//
// One fan-out per write. Tick and Load admit their records in stream order,
// then hand the worker pool 1 + H+1 independent items in a single ForEach:
// the histogram, index and archive walking the admitted stream, then each
// timestamp slot of the surface (pa.Surface.ApplySlot over the whole
// admitted stream). The helpers the writer hands slots to write disjoint
// slots under its engine lock. Workers: 1 runs the same items inline, in
// index order.
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
// Exactness. Answers are bit-identical at every worker count:
//
//   - FR / DH: the filter reads integer counters, index searches are exact,
//     and the plane sweep of a refinement row run depends only on the
//     resulting point multiset.
//   - PA: Chebyshev coefficient sums are floating-point and order-sensitive,
//     so the surface is fed the whole stream in arrival order — per
//     timestamp slot: slots share no coefficient, each is one work item, and
//     every series receives its increments in stream order at any worker
//     count. (Bit-identical within one binary; across kernels the
//     coefficients are bounded, not equal — DESIGN.md, "PA tolerance
//     contract".)
//   - BruteForce / PastSnapshot: the directory holds each live object once
//     and the archive each superseded movement once.
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
	"pdr/internal/history"
	"pdr/internal/motion"
	"pdr/internal/pa"
	"pdr/internal/parallel"
	"pdr/internal/storage"
	"pdr/internal/tprtree"
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
	// BufferPages caps the TPR-tree buffer pool (0 = unlimited;
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
// (Tick, Apply, Load) exclude queries and each other. The package comment
// states the locking protocol.
type Server struct {
	cfg    Config         // effective: defaults resolved
	par    *parallel.Pool // bounded fan-out workers (cfg.Workers)
	qcache *cache.Cache   // snapshot result cache; nil when CacheBytes is 0
	met    *Metrics       // nil unless SetMetrics was called (pre-traffic)

	// mu guards hist, pool, index, hst, surf and dir; see the package
	// comment for the protocol.
	mu    sync.RWMutex // pdr:lockrank engine 20
	hist  *dh.Histogram
	pool  *storage.Pool
	index *tprtree.Tree
	hst   *history.Store // nil unless Config.KeepHistory
	surf  *pa.Surface    // the one Chebyshev surface; nil when DisablePA
	dir   directory

	// epoch counts mutations (Tick/Apply/Load). Cached snapshot answers are
	// keyed by it, so bumping the epoch invalidates every prior answer in
	// O(1) without touching the cache itself.
	epoch atomic.Uint64
	now   atomic.Int64 // the server clock
}

// NewServer builds an empty server.
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
	horizon := cfg.U + cfg.W
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: cfg.HistM, Horizon: horizon})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		par:    parallel.New(cfg.Workers),
		qcache: cache.New(cfg.CacheBytes),
		hist:   hist,
		pool:   storage.NewPool(cfg.BufferPages),
	}
	s.index, err = tprtree.New(tprtree.Config{Pool: s.pool, Horizon: horizon, PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	if cfg.KeepHistory {
		s.hst, err = history.New(history.Config{Area: cfg.Area, BucketTicks: cfg.U})
		if err != nil {
			return nil, err
		}
	}
	if !cfg.DisablePA {
		s.surf, err = pa.New(pa.Config{
			Area: cfg.Area, G: cfg.PAGrid, Degree: cfg.PADegree,
			Horizon: horizon, L: cfg.L, MD: cfg.PAMD,
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

// NumObjects returns the live object count.
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.surf.Contours(at, level, res)
}

var errPADisabled = errors.New("core: PA surfaces are disabled on this server (Config.DisablePA)")

// PoolStats returns the index buffer pool's I/O counters.
func (s *Server) PoolStats() storage.Stats { return s.pool.Stats() }

// PoolPages returns the number of pages the buffer pool manages.
func (s *Server) PoolPages() int { return s.pool.NumPages() }

// DropBufferPools empties the buffer pool, so the next query pays cold I/O —
// the state the paper's I/O experiments measure from.
func (s *Server) DropBufferPools() { s.pool.Drop() }

// HistogramBytes returns the density histogram's counter footprint.
func (s *Server) HistogramBytes() int { return s.hist.MemoryBytes() }

// LiveStates returns every live object's current movement, ordered by ID.
func (s *Server) LiveStates() []motion.State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveStatesLocked()
}

func (s *Server) liveStatesLocked() []motion.State {
	states := make([]motion.State, 0, len(s.dir.m))
	for _, st := range s.dir.m {
		states = append(states, st)
	}
	slices.SortFunc(states, func(a, b motion.State) int { return cmp.Compare(a.ID, b.ID) })
	return states
}

// ArchiveSpan returns the archived movement segments' count and the tick
// range [lo, hi) they cover (zeros unless Config.KeepHistory).
func (s *Server) ArchiveSpan() (segments int, lo, hi motion.Tick) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.hst == nil || s.hst.Len() == 0 {
		return 0, 0, 0
	}
	lo, hi = s.hst.Span()
	return s.hst.Len(), lo, hi
}
