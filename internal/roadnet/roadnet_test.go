package roadnet

import (
	"math/rand"
	"testing"

	"pdr/internal/geom"
)

func testArea() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func testNet(t *testing.T) *Network {
	t.Helper()
	net, err := New(testArea(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geom.Rect{}, 1); err == nil {
		t.Error("empty area must be rejected")
	}
}

func TestNetworkStructure(t *testing.T) {
	net := testNet(t)
	if got, want := len(net.nodes), 32*32; got != want {
		t.Fatalf("%d nodes, want %d", got, want)
	}
	area := testArea()
	for v, p := range net.nodes {
		if !area.ContainsClosed(p) {
			t.Fatalf("node %d at %v outside area %v", v, p, area)
		}
		if len(net.adj[v]) == 0 {
			t.Fatalf("node %d has no edges", v)
		}
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	net := testNet(t)
	for a := 0; a < len(net.nodes); a++ {
		for _, he := range net.adj[a] {
			found := false
			for _, back := range net.adj[he.to] {
				if back.to == NodeID(a) && back.class == he.class {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d (%v) has no symmetric counterpart", a, he.to, he.class)
			}
		}
	}
}

func TestNetworkHasAllClasses(t *testing.T) {
	net := testNet(t)
	seen := map[Class]bool{}
	for a := 0; a < len(net.nodes); a++ {
		for _, he := range net.adj[a] {
			seen[he.class] = true
		}
	}
	for _, c := range []Class{Street, Avenue, Freeway} {
		if !seen[c] {
			t.Errorf("network has no %v edges", c)
		}
	}
}

func TestSpeedFactorsOrdered(t *testing.T) {
	if !(Freeway.SpeedFactor() > Avenue.SpeedFactor() && Avenue.SpeedFactor() > Street.SpeedFactor()) {
		t.Error("speed factors must be ordered Freeway > Avenue > Street")
	}
	if Street.String() != "street" || Avenue.String() != "avenue" || Freeway.String() != "freeway" {
		t.Error("Class.String mismatch")
	}
}

func TestSampleHubSkew(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(7))
	counts := map[NodeID]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[net.SampleHub(rng)]++
	}
	if len(counts) != len(net.hubs) {
		t.Fatalf("sampled %d distinct hubs, want %d", len(counts), len(net.hubs))
	}
	// The first hub (weight 1) must dominate the last (weight 1/k).
	first, last := counts[net.hubs[0]], counts[net.hubs[len(net.hubs)-1]]
	if first <= last {
		t.Errorf("hub skew missing: first=%d last=%d", first, last)
	}
}

func TestTravelerStaysOnNetworkAndInArea(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(11))
	tr := NewTraveler(net, rng, 1.2)
	for step := 0; step < 2000; step++ {
		p := tr.Pos(net)
		if !testArea().ContainsClosed(p) {
			t.Fatalf("step %d: traveler at %v left the area", step, p)
		}
		tr.Step(net, rng)
	}
}

func TestTravelerVelocityConsistentWithMotion(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(13))
	tr := NewTraveler(net, rng, 0.9)
	consistent := 0
	const steps = 500
	for i := 0; i < steps; i++ {
		p0 := tr.Pos(net)
		v := tr.Vel(net)
		turned := tr.Step(net, rng)
		p1 := tr.Pos(net)
		if !turned {
			// Linear prediction must match exactly when no turn happened.
			pred := p0.Add(v)
			if d := p1.Sub(pred).Norm(); d > 1e-6 {
				t.Fatalf("step %d: predicted %v, got %v (err %g)", i, pred, p1, d)
			}
			consistent++
		}
	}
	if consistent == 0 {
		t.Error("no straight-line steps observed; network geometry suspicious")
	}
}

func TestTravelerMakesProgressTowardDest(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(17))
	reached := 0
	for trial := 0; trial < 20; trial++ {
		tr := NewTraveler(net, rng, 2.0)
		dest := tr.Dest
		for step := 0; step < 5000; step++ {
			tr.Step(net, rng)
			if tr.From == dest || tr.Dest != dest {
				reached++
				break
			}
		}
	}
	if reached < 15 {
		t.Errorf("only %d/20 travelers reached a destination; greedy routing is broken", reached)
	}
}

func TestNextHopAvoidsUTurn(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		from := net.RandomNode(rng)
		if len(net.adj[from]) < 2 {
			continue
		}
		prev := net.adj[from][0].to
		dst := net.RandomNode(rng)
		if hop := net.NextHop(from, prev, dst, rng); hop == prev {
			t.Fatalf("NextHop made a U-turn from %d back to %d", from, prev)
		}
	}
}

func TestDistributionIsSkewed(t *testing.T) {
	// After warm-up, travelers must concentrate: the densest 10% of grid
	// cells should hold well over 10% of objects.
	net := testNet(t)
	rng := rand.New(rand.NewSource(23))
	const n = 600
	trs := make([]Traveler, n)
	for i := range trs {
		trs[i] = NewTraveler(net, rng, 1.0+rng.Float64())
	}
	for step := 0; step < 800; step++ {
		for i := range trs {
			trs[i].Step(net, rng)
		}
	}
	const g = 10
	var cells [g * g]int
	area := testArea()
	for i := range trs {
		p := trs[i].Pos(net)
		cx := int((p.X - area.MinX) / area.Width() * g)
		cy := int((p.Y - area.MinY) / area.Height() * g)
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		cells[cy*g+cx]++
	}
	counts := cells[:]
	for i := 1; i < len(counts); i++ { // insertion sort, descending
		for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	top := 0
	for i := 0; i < g*g/10; i++ {
		top += counts[i]
	}
	if float64(top) < 0.25*n {
		t.Errorf("top-10%% cells hold %d/%d objects; distribution not skewed enough", top, n)
	}
}
