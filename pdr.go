// Package pdr answers Pointwise-Dense Region (PDR) queries over moving
// objects, reproducing Ni & Ravishankar, "Pointwise-Dense Region Queries in
// Spatio-temporal Databases" (ICDE 2007).
//
// A PDR query (rho, l, qt) asks for every point p of the plane whose
// l-square neighborhood will contain at least rho*l^2 moving objects at
// timestamp qt. Unlike earlier dense-region definitions, the answer is
// complete (no dense region is missed), unique (no reporting ambiguity),
// admits arbitrary rectangle shapes and sizes, and guarantees the density
// locally at every reported point.
//
// The Server ingests a stream of location updates (objects moving linearly,
// re-reporting within a maximum update interval U) and answers snapshot and
// interval PDR queries up to W ticks into the future by several methods:
//
//   - FR: the exact filtering-refinement method — a density histogram
//     classifies grid cells as certainly dense / certainly not dense /
//     candidate, and a plane sweep over TPR-tree range results resolves the
//     candidates exactly;
//   - PA: the fast approximation — per-timestamp Chebyshev polynomial
//     density surfaces maintained incrementally in closed form, queried by
//     branch-and-bound;
//   - DHOptimistic / DHPessimistic: histogram-only baselines;
//   - BruteForce: a global plane sweep (exact; used as ground truth).
//
// A Server is safe for concurrent use. Config.Shards cuts the plane into
// space partitions with a write lock each, so that writers to different
// regions do not serialize; the default is one partition, and answers are
// identical at every setting.
//
// Quickstart:
//
//	srv, err := pdr.NewServer(pdr.DefaultConfig())
//	...
//	srv.Load(initialStates)
//	srv.Tick(now, updates)
//	res, err := srv.Snapshot(pdr.Query{Rho: rho, L: 30, At: now + 15}, pdr.FR)
//	for _, rect := range res.Region { ... }
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package pdr

import (
	"io"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Re-exported geometry types. Rectangles are half-open: [MinX, MaxX) x
// [MinY, MaxY).
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Vec is a velocity vector.
	Vec = geom.Vec
	// Rect is a half-open axis-aligned rectangle.
	Rect = geom.Rect
	// Region is a union of rectangles with exact measure operations.
	Region = geom.Region
)

// Re-exported motion types.
type (
	// Tick is a discrete timestamp.
	Tick = motion.Tick
	// ObjectID identifies a moving object.
	ObjectID = motion.ObjectID
	// State is an object's reported linear movement.
	State = motion.State
	// Update is one insert/delete record of the location-update stream.
	Update = motion.Update
)

// Re-exported engine types.
type (
	// Server is the PDR query engine.
	Server = core.Server
	// Config parameterizes a Server.
	Config = core.Config
	// Query is a snapshot PDR query (rho, l, qt).
	Query = core.Query
	// Result is a query answer with measured costs.
	Result = core.Result
	// Method selects the evaluation strategy.
	Method = core.Method
)

// Evaluation methods.
const (
	// FR is the exact filtering-refinement method.
	FR = core.FR
	// PA is the Chebyshev polynomial approximation.
	PA = core.PA
	// DHOptimistic reports accepted plus candidate histogram cells.
	DHOptimistic = core.DHOptimistic
	// DHPessimistic reports accepted histogram cells only.
	DHPessimistic = core.DHPessimistic
	// BruteForce sweeps all objects exactly (ground truth).
	BruteForce = core.BruteForce
)

// Plan is a method recommendation from Server.Recommend.
type Plan = core.Plan

// NewServer builds a PDR server.
func NewServer(cfg Config) (*Server, error) { return core.NewServer(cfg) }

// DefaultConfig returns the paper's default experimental setup.
func DefaultConfig() Config { return core.DefaultConfig() }

// Restore rebuilds a server from a checkpoint written by Server.Save.
func Restore(r io.Reader) (*Server, error) { return core.Restore(r) }

// NewInsert builds an insertion update for a fresh movement.
func NewInsert(s State) Update { return motion.NewInsert(s) }

// NewDelete builds a deletion update for the stale movement old, applied at
// server time now.
func NewDelete(old State, now Tick) Update { return motion.NewDelete(old, now) }

// RelativeThreshold converts the paper's relative density threshold varrho
// (1..5 in the evaluation) to an absolute density for n objects over area:
// rho = n * varrho / area.
func RelativeThreshold(n int, varrho float64, area Rect) float64 {
	return float64(n) * varrho / area.Area()
}
