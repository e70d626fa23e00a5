package tprtree

import (
	"container/heap"
	"math"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Neighbor is one k-nearest-neighbors result.
type Neighbor struct {
	State motion.State
	// Dist is the Euclidean distance from the query point at the query
	// timestamp.
	Dist float64
}

// KNN returns the k objects whose predicted positions at qt are closest to
// p, ordered by ascending distance — the canonical TPR-tree query the
// paper's related work targets (Saltenis et al. support exactly this
// predictive NN workload). It runs a best-first search over the
// time-parameterized bounding rectangles evaluated at qt.
func (t *Tree) KNN(p geom.Point, qt motion.Tick, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	pq := &knnQueue{}
	heap.Push(pq, knnItem{page: t.root, isNode: true, dist: 0})
	var out []Neighbor
	for pq.Len() > 0 {
		it := heap.Pop(pq).(knnItem)
		if len(out) == k && it.dist > out[len(out)-1].Dist {
			break // everything left is farther than the current k-th
		}
		if !it.isNode {
			out = insertNeighbor(out, Neighbor{State: it.state, Dist: it.dist}, k)
			continue
		}
		n := t.readNode(it.page)
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				st := e.state()
				d := st.PositionAt(qt).Sub(p).Norm()
				heap.Push(pq, knnItem{state: st, dist: d})
			} else {
				heap.Push(pq, knnItem{page: e.child, isNode: true, dist: e.minDistAt(p, qt)})
			}
		}
	}
	return out
}

// insertNeighbor keeps out sorted ascending with at most k entries.
func insertNeighbor(out []Neighbor, nb Neighbor, k int) []Neighbor {
	i := len(out)
	for i > 0 && out[i-1].Dist > nb.Dist {
		i--
	}
	out = append(out, Neighbor{})
	copy(out[i+1:], out[i:])
	out[i] = nb
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// minDistAt returns the minimum distance from p to e's bounding rectangle
// evaluated at time t (zero when p is inside).
func (e *entry) minDistAt(p geom.Point, t motion.Tick) float64 {
	dx := axisDist(p.X, e.loAt(0, t), e.hiAt(0, t))
	dy := axisDist(p.Y, e.loAt(1, t), e.hiAt(1, t))
	return math.Hypot(dx, dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// knnItem is a best-first queue entry: either a node page or a concrete
// object with its exact distance.
type knnItem struct {
	page   storagePageID
	state  motion.State
	isNode bool
	dist   float64
}

type knnQueue []knnItem

func (q knnQueue) Len() int           { return len(q) }
func (q knnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q knnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x any)        { *q = append(*q, x.(knnItem)) }
func (q *knnQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
