package datagen

import (
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func smallConfig(n int, uniform bool) Config {
	cfg := DefaultConfig(n)
	cfg.Warmup = 50
	cfg.Uniform = uniform
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{N: 10},
		{N: 10, Area: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		{N: 10, Area: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, U: 5, SpeedMin: -1, SpeedMax: 1},
		{N: 10, Area: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, U: 5, SpeedMin: 2, SpeedMax: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestInitialStatesInArea(t *testing.T) {
	for _, uniform := range []bool{false, true} {
		g, err := New(smallConfig(200, uniform))
		if err != nil {
			t.Fatal(err)
		}
		states := g.InitialStates()
		if len(states) != 200 {
			t.Fatalf("got %d states, want 200", len(states))
		}
		seen := map[motion.ObjectID]bool{}
		for _, s := range states {
			if !g.Area().ContainsClosed(s.Pos) {
				t.Fatalf("uniform=%v: initial pos %v outside area", uniform, s.Pos)
			}
			if s.Ref != 0 {
				t.Fatalf("initial Ref = %d, want 0", s.Ref)
			}
			if seen[s.ID] {
				t.Fatalf("duplicate object ID %d", s.ID)
			}
			seen[s.ID] = true
		}
	}
}

func TestUpdatesComeInDeleteInsertPairs(t *testing.T) {
	g, err := New(smallConfig(300, false))
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 30; tick++ {
		ups := g.Advance()
		if len(ups)%2 != 0 {
			t.Fatalf("tick %d: odd number of updates %d", tick, len(ups))
		}
		for i := 0; i < len(ups); i += 2 {
			del, ins := ups[i], ups[i+1]
			if del.Kind != motion.Delete || ins.Kind != motion.Insert {
				t.Fatalf("tick %d: pair kinds = %v,%v", tick, del.Kind, ins.Kind)
			}
			if del.State.ID != ins.State.ID {
				t.Fatalf("tick %d: pair IDs differ: %d vs %d", tick, del.State.ID, ins.State.ID)
			}
			if del.At != g.Now() || ins.At != g.Now() {
				t.Fatalf("tick %d: update At %d/%d, want %d", tick, del.At, ins.At, g.Now())
			}
			if ins.State.Ref != g.Now() {
				t.Fatalf("tick %d: insert Ref = %d, want %d", tick, ins.State.Ref, g.Now())
			}
		}
	}
}

func TestEveryObjectReportsWithinU(t *testing.T) {
	cfg := smallConfig(150, true) // uniform: turns are rare, deadline drives updates
	cfg.U = 10
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastReport := map[motion.ObjectID]motion.Tick{}
	for _, s := range g.InitialStates() {
		lastReport[s.ID] = 0
	}
	for tick := 0; tick < 60; tick++ {
		for _, u := range g.Advance() {
			if u.Kind == motion.Insert {
				lastReport[u.State.ID] = u.At
			}
		}
		for id, last := range lastReport {
			if g.Now()-last > cfg.U {
				t.Fatalf("object %d silent for %d > U=%d ticks", id, g.Now()-last, cfg.U)
			}
		}
	}
}

func TestUpdateRateAtLeastOnePercent(t *testing.T) {
	// The paper: "at least 1% of the objects issued updates at each
	// timestamp". With U=60 the deadline alone forces ~1.7%/tick.
	g, err := New(smallConfig(1000, false))
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 20; tick++ {
		ups := g.Advance()
		if len(ups)/2 < 10 {
			t.Fatalf("tick %d: only %d objects updated (<1%%)", tick, len(ups)/2)
		}
	}
}

func TestReportedStatePredictsTruthUntilTurn(t *testing.T) {
	// In uniform mode with huge area (no bouncing), the reported state must
	// predict the object's true position exactly at any later tick.
	cfg := smallConfig(50, true)
	cfg.Area = geom.Rect{MinX: -1e6, MinY: -1e6, MaxX: 1e6, MaxY: 1e6}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := map[motion.ObjectID]motion.State{}
	for _, s := range g.InitialStates() {
		states[s.ID] = s
	}
	for tick := 0; tick < 25; tick++ {
		for _, u := range g.Advance() {
			if u.Kind == motion.Insert {
				states[u.State.ID] = u.State
			}
		}
		for i := 0; i < g.N(); i++ {
			truth := g.truth(i, g.Now())
			pred := states[truth.ID].PositionAt(g.Now())
			if d := truth.Pos.Sub(pred).Norm(); d > 1e-6 {
				t.Fatalf("tick %d: object %d predicted %v, truth %v", g.Now(), truth.ID, pred, truth.Pos)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []motion.Update {
		g, err := New(smallConfig(100, false))
		if err != nil {
			t.Fatal(err)
		}
		var all []motion.Update
		for tick := 0; tick < 10; tick++ {
			all = append(all, g.Advance()...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("update %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
