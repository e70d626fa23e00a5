// Package roadnet builds synthetic metropolitan road networks and moves
// travelers along them.
//
// The paper evaluates PDR queries on objects moving over the Chicago
// metropolitan road network. That dataset is not available here, so this
// package substitutes the closest synthetic equivalent: a metro-style
// network with an avenue grid, radial freeways meeting at the city center,
// and a ring road, plus a small set of high-attraction hub nodes. Objects
// routed through such a network produce the same qualitative behaviour that
// matters for dense-region queries — highly skewed, corridor- and
// hub-concentrated object distributions — which is what the paper's
// experiments exercise.
package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"pdr/internal/geom"
)

// NodeID indexes a network node.
type NodeID int32

// Class is the road class of an edge; it scales travel speed.
type Class uint8

const (
	// Street is a low-speed local road.
	Street Class = iota
	// Avenue is a mid-speed arterial road.
	Avenue
	// Freeway is a high-speed limited-access road.
	Freeway
)

// SpeedFactor returns the fraction of an object's free-flow speed attainable
// on this road class.
func (c Class) SpeedFactor() float64 {
	switch c {
	case Freeway:
		return 1.0
	case Avenue:
		return 0.65
	default:
		return 0.4
	}
}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Freeway:
		return "freeway"
	case Avenue:
		return "avenue"
	default:
		return "street"
	}
}

// halfEdge is one direction of an undirected edge.
type halfEdge struct {
	to    NodeID
	class Class
}

// Network is an undirected road network embedded in the plane.
type Network struct {
	nodes []geom.Point
	adj   [][]halfEdge
	hubs  []NodeID  // high-attraction destinations
	hubW  []float64 // cumulative hub weights for sampling
}

// The synthesized network: a gridN x gridN street grid over the area with
// every avenueEvery-th line an avenue, 8 radial freeways, a ring road, and
// numHubs high-attraction destinations (the city center among them).
const (
	gridN       = 32
	avenueEvery = 4
	numHubs     = 6
)

// New synthesizes the metro network over area; seed places the hubs.
func New(area geom.Rect, seed int64) (*Network, error) {
	if area.IsEmpty() {
		return nil, fmt.Errorf("roadnet: empty area %v", area)
	}
	n := gridN
	net := &Network{
		nodes: make([]geom.Point, n*n),
		adj:   make([][]halfEdge, n*n),
	}
	dx := area.Width() / float64(n-1)
	dy := area.Height() / float64(n-1)
	id := func(i, j int) NodeID { return NodeID(i*n + j) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			net.nodes[id(i, j)] = geom.Point{
				X: area.MinX + float64(i)*dx,
				Y: area.MinY + float64(j)*dy,
			}
		}
	}

	classOf := func(line int) Class {
		if line%avenueEvery == 0 {
			return Avenue
		}
		return Street
	}
	// Grid edges.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				net.connect(id(i, j), id(i+1, j), classOf(j))
			}
			if j+1 < n {
				net.connect(id(i, j), id(i, j+1), classOf(i))
			}
		}
	}

	c := n / 2
	// Radial freeways: promote the 4 axis corridors through the center and
	// add the 4 diagonals as new freeway edges.
	for k := 0; k < n-1; k++ {
		net.promote(id(k, c), id(k+1, c), Freeway)
		net.promote(id(c, k), id(c, k+1), Freeway)
	}
	for k := 0; k+1 < n; k++ {
		net.connect(id(k, k), id(k+1, k+1), Freeway)
		net.connect(id(k, n-1-k), id(k+1, n-2-k), Freeway)
	}
	// Ring road at one third of the radius.
	r := n / 3
	lo, hi := c-r, c+r
	if lo >= 0 && hi < n {
		for k := lo; k < hi; k++ {
			net.promote(id(k, lo), id(k+1, lo), Freeway)
			net.promote(id(k, hi), id(k+1, hi), Freeway)
			net.promote(id(lo, k), id(lo, k+1), Freeway)
			net.promote(id(hi, k), id(hi, k+1), Freeway)
		}
	}

	// Hubs: the center plus numHubs-1 random nodes biased toward the ring.
	rng := rand.New(rand.NewSource(seed))
	net.hubs = append(net.hubs, id(c, c))
	for len(net.hubs) < numHubs {
		i := lo + rng.Intn(2*r+1)
		j := lo + rng.Intn(2*r+1)
		net.hubs = append(net.hubs, id(i, j))
	}
	// Zipf-ish hub weights: hub k has weight 1/(k+1).
	net.hubW = make([]float64, len(net.hubs))
	var cum float64
	for k := range net.hubs {
		cum += 1 / float64(k+1)
		net.hubW[k] = cum
	}
	return net, nil
}

func (net *Network) connect(a, b NodeID, c Class) {
	net.adj[a] = append(net.adj[a], halfEdge{b, c})
	net.adj[b] = append(net.adj[b], halfEdge{a, c})
}

// promote raises the class of the existing edge a-b to at least c; if the
// edge does not exist it is created.
func (net *Network) promote(a, b NodeID, c Class) {
	found := false
	for i := range net.adj[a] {
		if net.adj[a][i].to == b {
			found = true
			if net.adj[a][i].class < c {
				net.adj[a][i].class = c
			}
		}
	}
	for i := range net.adj[b] {
		if net.adj[b][i].to == a && net.adj[b][i].class < c {
			net.adj[b][i].class = c
		}
	}
	if !found {
		net.connect(a, b, c)
	}
}

// RandomNode samples a node uniformly.
func (net *Network) RandomNode(rng *rand.Rand) NodeID {
	return NodeID(rng.Intn(len(net.nodes)))
}

// SampleHub samples a hub node with Zipf-skewed weights; this is the source
// of the skewed object distributions the paper's evaluation relies on.
func (net *Network) SampleHub(rng *rand.Rand) NodeID {
	u := rng.Float64() * net.hubW[len(net.hubW)-1]
	for k, w := range net.hubW {
		if u <= w {
			return net.hubs[k]
		}
	}
	return net.hubs[len(net.hubs)-1]
}

// NextHop returns the neighbor of from that greedily reduces Euclidean
// distance to dst, preferring faster road classes on near-ties. prev is the
// node the traveler just came from and is avoided unless it is the only
// option (no immediate U-turns).
func (net *Network) NextHop(from, prev, dst NodeID, rng *rand.Rand) NodeID {
	target := net.nodes[dst]
	best := NodeID(-1)
	bestScore := math.Inf(1)
	for _, he := range net.adj[from] {
		if he.to == prev && len(net.adj[from]) > 1 {
			continue
		}
		d := net.nodes[he.to].Sub(target).Norm()
		// Faster classes get a discount so travelers prefer corridors; a
		// small random jitter breaks ties and diversifies routes.
		score := d * (1.15 - 0.15*he.class.SpeedFactor()) * (1 + 0.05*rng.Float64())
		if score < bestScore {
			bestScore = score
			best = he.to
		}
	}
	if best < 0 { // isolated node; stay put
		return from
	}
	return best
}

// EdgeClass returns the class of edge a-b, or Street if the edge does not
// exist.
func (net *Network) EdgeClass(a, b NodeID) Class {
	for _, he := range net.adj[a] {
		if he.to == b {
			return he.class
		}
	}
	return Street
}

// Traveler is an object walking the network toward a destination hub.
type Traveler struct {
	From, To  NodeID  // current edge endpoints (moving From -> To)
	Dest      NodeID  // destination node
	Progress  float64 // distance covered along the current edge
	FreeSpeed float64 // free-flow speed (distance per tick)
}

// NewTraveler places a traveler at a uniformly random node heading to a
// hub-weighted destination, using greedy geometric routing.
func NewTraveler(net *Network, rng *rand.Rand, freeSpeed float64) Traveler {
	from := net.RandomNode(rng)
	dest := net.SampleHub(rng)
	to := net.NextHop(from, -1, dest, rng)
	return Traveler{From: from, To: to, Dest: dest, FreeSpeed: freeSpeed}
}

// Pos returns the traveler's current location.
func (tr *Traveler) Pos(net *Network) geom.Point {
	a, b := net.nodes[tr.From], net.nodes[tr.To]
	d := b.Sub(a)
	length := d.Norm()
	if length == 0 {
		return a
	}
	f := tr.Progress / length
	if f > 1 {
		f = 1
	}
	return a.Add(d.Scale(f))
}

// Vel returns the traveler's current velocity vector (direction along the
// current edge scaled by the class-adjusted speed).
func (tr *Traveler) Vel(net *Network) geom.Vec {
	a, b := net.nodes[tr.From], net.nodes[tr.To]
	d := b.Sub(a)
	length := d.Norm()
	if length == 0 {
		return geom.Vec{}
	}
	speed := tr.FreeSpeed * net.EdgeClass(tr.From, tr.To).SpeedFactor()
	return d.Scale(speed / length)
}

// Step advances the traveler by one tick and reports whether its velocity
// vector changed (i.e. it turned at a node or reached its destination and
// picked a new one). A velocity change is what forces a location update in
// the workload generator.
func (tr *Traveler) Step(net *Network, rng *rand.Rand) (turned bool) {
	speed := tr.FreeSpeed * net.EdgeClass(tr.From, tr.To).SpeedFactor()
	remaining := speed
	for remaining > 0 {
		a, b := net.nodes[tr.From], net.nodes[tr.To]
		length := b.Sub(a).Norm()
		if length == 0 {
			// Degenerate edge; hop immediately.
			tr.advanceNode(net, rng)
			turned = true
			continue
		}
		left := length - tr.Progress
		if remaining < left {
			tr.Progress += remaining
			return turned
		}
		remaining -= left
		tr.advanceNode(net, rng)
		turned = true
		// Speed may differ on the new edge; recompute for the residual.
		speed = tr.FreeSpeed * net.EdgeClass(tr.From, tr.To).SpeedFactor()
		if speed <= 0 {
			return turned
		}
	}
	return turned
}

// advanceNode moves the traveler onto the next edge toward its destination,
// re-sampling the destination when reached.
func (tr *Traveler) advanceNode(net *Network, rng *rand.Rand) {
	arrived := tr.To
	if arrived == tr.Dest {
		// Dwell is not modelled; pick a fresh hub-weighted destination (or
		// occasionally a uniform one, so the periphery is not deserted).
		if rng.Float64() < 0.25 {
			tr.Dest = net.RandomNode(rng)
		} else {
			tr.Dest = net.SampleHub(rng)
		}
	}
	tr.From, tr.To = arrived, net.NextHop(arrived, tr.From, tr.Dest, rng)
	tr.Progress = 0
}
