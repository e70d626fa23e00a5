package main

import (
	"fmt"
	"math"

	"pdr/internal/core"
	"pdr/internal/dh"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/pa"
	"pdr/internal/storage"
	"pdr/internal/sweep"
	"pdr/internal/tprtree"
)

// Span names: one per layer entry point the shadow pipeline calls.
const (
	spanDHFilter   = "dh.filter"
	spanDHUpdate   = "dh.update"
	spanTPRSearch  = "tprtree.search"
	spanTPRUpdate  = "tprtree.update"
	spanTPRBulk    = "tprtree.bulkload"
	spanSweep      = "sweep.dense_rects"
	spanUnion      = "geom.union"
	spanPARegion   = "pa.dense_region"
	spanPAUpdate   = "pa.update"
	spanShadowRoot = "core" // the glue between the layers: what core itself adds
)

// shadow is the query and update pipeline rebuilt from standalone layer
// instances, configured as core.NewServer configures them, so that every
// call into a layer can be timed from outside the layer. It answers exactly
// what the engine answers; the probe checks that bit for bit.
type shadow struct {
	area geom.Rect
	hist *dh.Histogram
	surf *pa.Surface
	pool *storage.Pool
	tree *tprtree.Tree

	points []geom.Point // gather buffer, reused like the engine's pooled one
}

func newShadow(cfg core.Config) (*shadow, error) {
	horizon := cfg.U + cfg.W
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: cfg.HistM, Horizon: horizon})
	if err != nil {
		return nil, err
	}
	surf, err := pa.New(pa.Config{Area: cfg.Area, G: cfg.PAGrid, Degree: cfg.PADegree, Horizon: horizon, L: cfg.L, MD: cfg.PAMD})
	if err != nil {
		return nil, err
	}
	pool := storage.NewPool(cfg.BufferPages)
	tree, err := tprtree.New(tprtree.Config{Pool: pool, Horizon: horizon, PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	return &shadow{area: cfg.Area, hist: hist, surf: surf, pool: pool, tree: tree}, nil
}

// load mirrors core.Server.Load's bulk path, one layer at a time.
func (s *shadow) load(tr *tracer, op int, class string, states []motion.State) error {
	root := tr.begin(op, class, spanShadowRoot, 0)
	defer tr.end(root)
	sp := tr.begin(op, class, spanDHUpdate, root)
	for _, st := range states {
		s.hist.Insert(st)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanPAUpdate, root)
	for _, st := range states {
		s.surf.Insert(st)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanTPRBulk, root)
	err := s.tree.BulkLoad(states)
	tr.end(sp)
	return err
}

// tick mirrors core.Server.Tick. The three summaries are independent of each
// other, so the shadow feeds each its whole batch in turn — one span per
// layer per tick instead of three per record, which would cost more than the
// histogram update it measures.
func (s *shadow) tick(tr *tracer, op int, class string, now motion.Tick, ups []motion.Update) error {
	root := tr.begin(op, class, spanShadowRoot, 0)
	defer tr.end(root)
	sp := tr.begin(op, class, spanDHUpdate, root)
	s.hist.Advance(now)
	for _, u := range ups {
		s.hist.Apply(u)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanPAUpdate, root)
	s.surf.Advance(now)
	for _, u := range ups {
		s.surf.Apply(u)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanTPRUpdate, root)
	defer tr.end(sp)
	s.tree.SetNow(now)
	return s.applyTree(ups)
}

// apply mirrors core.Server.Apply for the updates of one /v1/apply request.
func (s *shadow) apply(tr *tracer, op int, class string, ups []motion.Update) error {
	root := tr.begin(op, class, spanShadowRoot, 0)
	defer tr.end(root)
	sp := tr.begin(op, class, spanDHUpdate, root)
	for _, u := range ups {
		s.hist.Apply(u)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanPAUpdate, root)
	for _, u := range ups {
		s.surf.Apply(u)
	}
	tr.end(sp)
	sp = tr.begin(op, class, spanTPRUpdate, root)
	defer tr.end(sp)
	return s.applyTree(ups)
}

func (s *shadow) applyTree(ups []motion.Update) error {
	for _, u := range ups {
		if u.Kind == motion.Insert {
			s.tree.Insert(u.State)
		} else if !s.tree.Delete(u.State) {
			return fmt.Errorf("shadow: object %d missing from the index", u.State.ID)
		}
	}
	return nil
}

// frCounts are the work counts of one exact snapshot.
type frCounts struct {
	accepted, candidates, windows, retrieved, sweepOut, unionIn, unionOut int
}

// snapshotFR mirrors core's filter-refinement snapshot: histogram filter,
// then per candidate cell an index search and a plane sweep, then the union.
func (s *shadow) snapshotFR(tr *tracer, op int, class string, parent int, q core.Query) (geom.Region, frCounts, error) {
	var c frCounts
	root := tr.begin(op, class, spanShadowRoot, parent)
	defer tr.end(root)
	sp := tr.begin(op, class, spanDHFilter, root)
	fr, err := s.hist.Filter(q.At, q.Rho, q.L)
	if err != nil {
		tr.end(sp)
		return nil, c, err
	}
	c.accepted, _, c.candidates = fr.CountMarks()
	region := fr.AcceptedRegion()
	cands := fr.Candidates()
	fr.Release()
	tr.end(sp)

	c.windows = len(cands)
	for _, cand := range cands {
		cell := s.hist.CellRect(cand.I, cand.J)
		grown := cell.Grow(q.L / 2)
		sp = tr.begin(op, class, spanTPRSearch, root)
		points := s.points[:0]
		s.tree.Search(grown, q.At, func(st motion.State) bool {
			p := st.PositionAt(q.At)
			if s.area.Contains(p) {
				points = append(points, p)
			}
			return true
		})
		tr.end(sp)
		s.points = points
		c.retrieved += len(points)
		sp = tr.begin(op, class, spanSweep, root)
		part := sweep.DenseRects(points, cell, q.Rho, q.L)
		tr.end(sp)
		c.sweepOut += len(part)
		region = append(region, part...)
	}
	c.unionIn = len(region)
	sp = tr.begin(op, class, spanUnion, root)
	region = geom.CoalesceInPlace(region)
	tr.end(sp)
	c.unionOut = len(region)
	return region, c, nil
}

// snapshotPA mirrors core's approximate snapshot: one call into the surfaces.
func (s *shadow) snapshotPA(tr *tracer, op int, class string, parent int, q core.Query) (geom.Region, error) {
	root := tr.begin(op, class, spanShadowRoot, parent)
	defer tr.end(root)
	sp := tr.begin(op, class, spanPARegion, root)
	defer tr.end(sp)
	return s.surf.DenseRegion(q.At, q.Rho)
}

// query answers a snapshot (until == q.At) or an interval the way the engine
// does: per-timestamp snapshots in timestamp order, their rectangles
// concatenated and coalesced once more.
func (s *shadow) query(tr *tracer, op int, class string, q core.Query, until motion.Tick, m core.Method) (geom.Region, frCounts, error) {
	one := func(parent int, q core.Query) (geom.Region, frCounts, error) {
		if m == core.PA {
			r, err := s.snapshotPA(tr, op, class, parent, q)
			return r, frCounts{}, err
		}
		return s.snapshotFR(tr, op, class, parent, q)
	}
	if until == q.At {
		return one(0, q)
	}
	root := tr.begin(op, class, spanShadowRoot, 0)
	defer tr.end(root)
	var region geom.Region
	var total frCounts
	for t := q.At; t <= until; t++ {
		sub := q
		sub.At = t
		r, c, err := one(root, sub)
		if err != nil {
			return nil, total, err
		}
		region = append(region, r...)
		total.retrieved += c.retrieved
	}
	sp := tr.begin(op, class, spanUnion, root)
	region = geom.CoalesceInPlace(region)
	tr.end(sp)
	return region, total, nil
}

// sameRegion reports whether two answers are identical bit for bit.
func sameRegion(a, b geom.Region) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if bits(a[i].MinX) != bits(b[i].MinX) || bits(a[i].MinY) != bits(b[i].MinY) ||
			bits(a[i].MaxX) != bits(b[i].MaxX) || bits(a[i].MaxY) != bits(b[i].MaxY) {
			return false
		}
	}
	return true
}
