// Package tprtree implements a time-parameterized R-tree (TPR-tree,
// Saltenis et al., SIGMOD 2000) over a paged buffer pool. It indexes the
// predicted linear trajectories of moving objects and answers timestamp
// range queries ("all objects inside rectangle R at future time qt"), which
// is exactly the access path the PDR paper's refinement step needs.
//
// Every entry stores a time-parameterized bounding rectangle (tpbr): position
// bounds that are tight at the entry's reference time plus velocity bounds,
// so the rectangle [lo + vlo*(t-ref), hi + vhi*(t-ref)] conservatively
// bounds the subtree at any t >= ref. Inserts choose subtrees by minimal
// enlargement of the area integrated over the tree's horizon window
// [now, now+H], and splits minimize the same integral, following the
// TPR-tree's "integrated area" optimization.
package tprtree

import (
	"fmt"
	"math"
	"sort"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

// entry is either a leaf entry (an object's exact trajectory: lo==hi,
// vlo==vhi, child==0) or an internal entry (a child page and the tpbr of its
// subtree).
type entry struct {
	child    storage.PageID
	obj      motion.ObjectID
	ref      motion.Tick
	lo, hi   [2]float64
	vlo, vhi [2]float64
}

const (
	headerBytes        = 24
	internalEntryBytes = 8 + 8 + 8*8 // child + ref + 4 position and 4 velocity bounds
	leafEntryBytes     = 8 + 8 + 4*8 // obj + ref + position + velocity
)

func leafEntry(s motion.State) entry {
	return entry{
		obj: s.ID,
		ref: s.Ref,
		lo:  [2]float64{s.Pos.X, s.Pos.Y},
		hi:  [2]float64{s.Pos.X, s.Pos.Y},
		vlo: [2]float64{s.Vel.X, s.Vel.Y},
		vhi: [2]float64{s.Vel.X, s.Vel.Y},
	}
}

func (e *entry) state() motion.State {
	return motion.State{
		ID:  e.obj,
		Ref: e.ref,
		Pos: geom.Point{X: e.lo[0], Y: e.lo[1]},
		Vel: geom.Vec{X: e.vlo[0], Y: e.vlo[1]},
	}
}

// loAt and hiAt evaluate the tpbr bounds at time t (valid for t >= e.ref;
// exact at all t for leaf entries). They and intersectsAt run once per entry
// per node visit of every search, so they take the 88-byte entry by pointer.
func (e *entry) loAt(d int, t motion.Tick) float64 { return e.lo[d] + e.vlo[d]*float64(t-e.ref) }
func (e *entry) hiAt(d int, t motion.Tick) float64 { return e.hi[d] + e.vhi[d]*float64(t-e.ref) }

// spanAt returns e's position bounds along dimension d at reference time
// rc >= e.ref: as stored when rc is e's own anchor, evaluated otherwise.
func (e *entry) spanAt(d int, rc motion.Tick) (lo, hi float64) {
	if rc == e.ref {
		return e.lo[d], e.hi[d]
	}
	return e.loAt(d, rc), e.hiAt(d, rc)
}

// bound returns the tpbr of e alone re-anchored at rc >= e.ref (position
// bounds evaluated at rc, velocity bounds unchanged), naming neither a child
// page nor an object: the seed extend accumulates into.
func (e *entry) bound(rc motion.Tick) entry {
	out := entry{ref: rc, vlo: e.vlo, vhi: e.vhi}
	for d := 0; d < 2; d++ {
		out.lo[d], out.hi[d] = e.spanAt(d, rc)
	}
	return out
}

// extend grows acc, a tpbr anchored at rc, to cover e as well (rc must be
// >= e.ref for the result to be conservative). The write path unions a
// node's entries on every insert and delete at every level, so both sides
// are taken by pointer and e is re-anchored on the fly: no 88-byte entry is
// copied.
func (acc *entry) extend(e *entry, rc motion.Tick) {
	for d := 0; d < 2; d++ {
		lo, hi := e.spanAt(d, rc)
		acc.lo[d] = math.Min(acc.lo[d], lo)
		acc.hi[d] = math.Max(acc.hi[d], hi)
		acc.vlo[d] = math.Min(acc.vlo[d], e.vlo[d])
		acc.vhi[d] = math.Max(acc.vhi[d], e.vhi[d])
	}
}

// combine returns the tpbr union of a and b anchored at rc (rc must be >=
// both reference times for the result to be conservative).
func combine(a, b *entry, rc motion.Tick) entry {
	out := a.bound(rc)
	out.extend(b, rc)
	return out
}

// combineAll unions a non-empty entry slice at anchor rc.
func combineAll(es []entry, rc motion.Tick) entry {
	out := es[0].bound(rc)
	for i := 1; i < len(es); i++ {
		out.extend(&es[i], rc)
	}
	return out
}

// integArea returns the integral over [t1, t2] of the area of e's tpbr.
// Width along dimension d at time t is (hi-lo) + (vhi-vlo)*(t-ref), so the
// area is a quadratic in t with an analytic integral.
func (e *entry) integArea(t1, t2 motion.Tick) float64 {
	if t2 < t1 {
		return 0
	}
	s0 := float64(t1 - e.ref)
	T := float64(t2 - t1)
	a := (e.hi[0] - e.lo[0]) + (e.vhi[0]-e.vlo[0])*s0
	b := e.vhi[0] - e.vlo[0]
	c := (e.hi[1] - e.lo[1]) + (e.vhi[1]-e.vlo[1])*s0
	d := e.vhi[1] - e.vlo[1]
	if T == 0 {
		return a * c
	}
	return a*c*T + (a*d+b*c)*T*T/2 + b*d*T*T*T/3
}

// intersectsAt reports whether e's tpbr at time t overlaps r, treating both
// as closed sets (conservative for index descent).
func (e *entry) intersectsAt(r geom.Rect, t motion.Tick) bool {
	return e.loAt(0, t) <= r.MaxX && e.hiAt(0, t) >= r.MinX &&
		e.loAt(1, t) <= r.MaxY && e.hiAt(1, t) >= r.MinY
}

// storagePageID is a local alias to keep signatures compact.
type storagePageID = storage.PageID

// node is one tree page.
type node struct {
	leaf    bool
	entries []entry
}

// Tree is a TPR-tree. It is not safe for concurrent use.
type Tree struct {
	pool    *storage.Pool
	root    storage.PageID
	height  int // 1 = root is a leaf
	horizon motion.Tick
	now     motion.Tick
	size    int

	fanLeaf, fanInt int
	minLeaf, minInt int
}

// Config parameterizes tree construction.
type Config struct {
	// Pool is the buffer pool backing the tree's pages. Required.
	Pool *storage.Pool
	// Horizon is the time-integration window H = U + W used by insertion
	// and split optimization.
	Horizon motion.Tick
	// PageSize in bytes determines the node fan-out; 0 means the paper's
	// 4 KB.
	PageSize int
}

// New creates an empty TPR-tree.
func New(cfg Config) (*Tree, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("tprtree: nil pool")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("tprtree: horizon must be positive, got %d", cfg.Horizon)
	}
	ps := cfg.PageSize
	if ps == 0 {
		ps = storage.DefaultPageSize
	}
	fanLeaf := (ps - headerBytes) / leafEntryBytes
	fanInt := (ps - headerBytes) / internalEntryBytes
	if fanLeaf < 4 || fanInt < 4 {
		return nil, fmt.Errorf("tprtree: page size %d too small", ps)
	}
	t := &Tree{
		pool:    cfg.Pool,
		horizon: cfg.Horizon,
		height:  1,
		fanLeaf: fanLeaf,
		fanInt:  fanInt,
		minLeaf: max(2, fanLeaf*2/5),
		minInt:  max(2, fanInt*2/5),
	}
	t.root = t.newNode(&node{leaf: true})
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *Tree) newNode(n *node) storage.PageID {
	id := t.pool.Alloc()
	t.mustWrite(id, n)
	return id
}

func (t *Tree) readNode(id storage.PageID) *node {
	v, err := t.pool.Read(id)
	if err != nil {
		panic("tprtree: " + err.Error()) // structural corruption; unrecoverable
	}
	return v.(*node)
}

func (t *Tree) mustWrite(id storage.PageID, n *node) {
	if err := t.pool.Write(id, n); err != nil {
		panic("tprtree: " + err.Error())
	}
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Now returns the tree's current time anchor.
func (t *Tree) Now() motion.Tick { return t.now }

// SetNow advances the tree's notion of current time; insertion and split
// optimization integrate over [now, now+Horizon]. SetNow never moves time
// backwards.
func (t *Tree) SetNow(now motion.Tick) {
	if now > t.now {
		t.now = now
	}
}

func (t *Tree) fan(leaf bool) int {
	if leaf {
		return t.fanLeaf
	}
	return t.fanInt
}

func (t *Tree) min(leaf bool) int {
	if leaf {
		return t.minLeaf
	}
	return t.minInt
}

// Insert indexes the movement s.
func (t *Tree) Insert(s motion.State) {
	t.insertEntry(leafEntry(s))
	t.size++
}

func (t *Tree) insertEntry(e entry) {
	bound, split := t.insertAt(t.root, &e)
	if split != nil {
		// Root split: grow the tree.
		oldRoot := bound
		oldRoot.child = t.root
		newRoot := &node{leaf: false, entries: []entry{oldRoot, *split}}
		t.root = t.newNode(newRoot)
		t.height++
	}
}

// insertAt descends to a leaf, inserts e, and returns the (tight, re-anchored
// at t.now) bound of the visited node plus an optional new sibling from a
// split.
func (t *Tree) insertAt(pid storage.PageID, e *entry) (bound entry, split *entry) {
	n := t.readNode(pid)
	if n.leaf {
		n.entries = append(n.entries, *e)
	} else {
		best := t.chooseSubtree(n, e)
		childBound, childSplit := t.insertAt(n.entries[best].child, e)
		childBound.child = n.entries[best].child
		n.entries[best] = childBound
		if childSplit != nil {
			n.entries = append(n.entries, *childSplit)
		}
	}
	if len(n.entries) > t.fan(n.leaf) {
		sibling := t.split(n)
		sibBound := combineAll(sibling.entries, t.now)
		sibBound.child = t.newNode(sibling)
		t.mustWrite(pid, n)
		b := combineAll(n.entries, t.now)
		b.child = pid
		return b, &sibBound
	}
	t.mustWrite(pid, n)
	b := combineAll(n.entries, t.now)
	b.child = pid
	return b, nil
}

// chooseSubtree picks the child of n whose horizon-integrated area grows
// least when enlarged to cover e, breaking ties by least integrated area.
func (t *Tree) chooseSubtree(n *node, e *entry) int {
	t1, t2 := t.now, t.now+t.horizon
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i := range n.entries {
		c := &n.entries[i]
		area := c.integArea(t1, t2)
		u := combine(c, e, t.now)
		enl := u.integArea(t1, t2) - area
		// lint:ignore floateq exact tie-break between identically-computed
		// enlargements; an epsilon would only blur the heuristic.
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// split divides the overflowing node n in place, returning the new sibling.
// Candidate orderings are (axis x {position-at-now, velocity-low}); for each
// ordering every legal distribution is scored by the sum of the two groups'
// horizon-integrated areas, and the global minimum wins.
func (t *Tree) split(n *node) *node {
	es := n.entries
	minFill := t.min(n.leaf)
	t1, t2 := t.now, t.now+t.horizon

	type ordering struct {
		key func(entry) float64
	}
	var orderings []ordering
	for d := 0; d < 2; d++ {
		d := d
		orderings = append(orderings,
			ordering{key: func(e entry) float64 { return e.loAt(d, t.now) }},
			ordering{key: func(e entry) float64 { return e.vlo[d] }},
		)
	}

	bestCost := math.Inf(1)
	var bestLeft, bestRight []entry
	buf := make([]entry, len(es))
	for _, ord := range orderings {
		copy(buf, es)
		sortEntries(buf, ord.key)
		// Prefix and suffix combined bounds for O(n) distribution scoring.
		prefix := make([]entry, len(buf))
		suffix := make([]entry, len(buf))
		prefix[0] = buf[0].bound(t.now)
		for i := 1; i < len(buf); i++ {
			prefix[i] = prefix[i-1]
			prefix[i].extend(&buf[i], t.now)
		}
		suffix[len(buf)-1] = buf[len(buf)-1].bound(t.now)
		for i := len(buf) - 2; i >= 0; i-- {
			suffix[i] = suffix[i+1]
			suffix[i].extend(&buf[i], t.now)
		}
		for k := minFill; k <= len(buf)-minFill; k++ {
			cost := prefix[k-1].integArea(t1, t2) + suffix[k].integArea(t1, t2)
			if cost < bestCost {
				bestCost = cost
				bestLeft = append(bestLeft[:0], buf[:k]...)
				bestRight = append(bestRight[:0], buf[k:]...)
			}
		}
	}
	n.entries = append([]entry(nil), bestLeft...)
	return &node{leaf: n.leaf, entries: append([]entry(nil), bestRight...)}
}

func sortEntries(es []entry, key func(entry) float64) {
	sort.Slice(es, func(i, j int) bool { return key(es[i]) < key(es[j]) })
}
