package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// streamConfig is the engine the stream-replay tests (equivalence, golden,
// concurrency, pool stress) run against, at the given partition and worker
// counts.
func streamConfig(shards, workers int) Config {
	return Config{
		Area:        geom.NewRect(0, 0, 1000, 1000),
		U:           60,
		W:           30,
		HistM:       20, // cell edge 50; FR accepts l >= 100
		PAGrid:      4,
		PADegree:    3,
		PAMD:        64,
		L:           100,
		IOCharge:    time.Millisecond,
		KeepHistory: true,
		Workers:     workers,
		Shards:      shards,
	}
}

// streamServer builds a server at (shards, workers) and replays st onto it.
func streamServer(t *testing.T, st *stream, shards, workers int) *Server {
	t.Helper()
	s, err := NewServer(streamConfig(shards, workers))
	if err != nil {
		t.Fatal(err)
	}
	st.replay(t, s)
	return s
}

// stream is a recorded update workload replayable onto any engine.
type stream struct {
	load  []motion.State
	ticks []tickBatch
}

type tickBatch struct {
	now     motion.Tick
	updates []motion.Update
	// applies land through Apply after the tick (the between-ticks path).
	applies []motion.Update
}

// makeStream builds a deterministic workload of 300 loaded objects plus ten
// ticks of movement updates, fresh inserts, permanent deletes, and
// between-tick Apply traffic. Velocities up to 8 units/tick over a 90-tick
// horizon give trajectories spanning most of the plane, so many objects
// straddle shard boundaries; a few are handcrafted to sit exactly on the
// center partition lines.
func makeStream() *stream {
	rng := rand.New(rand.NewSource(42))
	s := &stream{}
	live := make(map[motion.ObjectID]motion.State)
	next := motion.ObjectID(1)
	randState := func(ref motion.Tick) motion.State {
		st := motion.State{
			ID:  next,
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Vel: geom.Vec{X: (rng.Float64() - 0.5) * 16, Y: (rng.Float64() - 0.5) * 16},
			Ref: ref,
		}
		next++
		return st
	}
	for i := 0; i < 300; i++ {
		st := randState(0)
		s.load = append(s.load, st)
		live[st.ID] = st
	}
	// Boundary straddlers: on the center lines, crossing them, and parked
	// exactly at the area corner.
	for _, st := range []motion.State{
		{ID: next, Pos: geom.Point{X: 500, Y: 500}, Vel: geom.Vec{X: 3, Y: -3}, Ref: 0},
		{ID: next + 1, Pos: geom.Point{X: 499.999, Y: 250}, Vel: geom.Vec{X: 0.001, Y: 0}, Ref: 0},
		{ID: next + 2, Pos: geom.Point{X: 250, Y: 500}, Vel: geom.Vec{X: 0, Y: 0}, Ref: 0},
		{ID: next + 3, Pos: geom.Point{X: 1000, Y: 1000}, Vel: geom.Vec{X: -5, Y: -5}, Ref: 0},
		{ID: next + 4, Pos: geom.Point{X: 0, Y: 999.5}, Vel: geom.Vec{X: 8, Y: 0}, Ref: 0},
	} {
		s.load = append(s.load, st)
		live[st.ID] = st
		next = st.ID + 1
	}
	liveIDs := func() []motion.ObjectID {
		ids := make([]motion.ObjectID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		// map order is random; sort for determinism
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		return ids
	}
	for t := motion.Tick(1); t <= 10; t++ {
		b := tickBatch{now: t}
		ids := liveIDs()
		// 15 movement updates: delete the stale movement, insert the new.
		for i := 0; i < 15; i++ {
			id := ids[rng.Intn(len(ids))]
			cur, ok := live[id]
			if !ok {
				continue
			}
			b.updates = append(b.updates, motion.NewDelete(cur, t))
			st := randState(t)
			st.ID = id
			b.updates = append(b.updates, motion.NewInsert(st))
			live[id] = st
		}
		// 5 fresh inserts, 3 permanent deletes.
		for i := 0; i < 5; i++ {
			st := randState(t)
			b.updates = append(b.updates, motion.NewInsert(st))
			live[st.ID] = st
		}
		ids = liveIDs()
		for i := 0; i < 3; i++ {
			id := ids[rng.Intn(len(ids))]
			cur, ok := live[id]
			if !ok {
				continue
			}
			b.updates = append(b.updates, motion.NewDelete(cur, t))
			delete(live, id)
		}
		// Between-tick Apply traffic: 4 single-record updates.
		for i := 0; i < 2; i++ {
			st := randState(t)
			b.applies = append(b.applies, motion.NewInsert(st))
			live[st.ID] = st
		}
		ids = liveIDs()
		for i := 0; i < 2; i++ {
			id := ids[rng.Intn(len(ids))]
			cur, ok := live[id]
			if !ok {
				continue
			}
			b.applies = append(b.applies, motion.NewDelete(cur, t))
			delete(live, id)
		}
		s.ticks = append(s.ticks, b)
	}
	return s
}

func (s *stream) replay(t *testing.T, e *Server) {
	t.Helper()
	if err := e.Load(s.load); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, b := range s.ticks {
		if err := e.Tick(b.now, b.updates); err != nil {
			t.Fatalf("Tick(%d): %v", b.now, err)
		}
		for _, u := range b.applies {
			if err := e.Apply(u); err != nil {
				t.Fatalf("Apply(%v %d): %v", u.Kind, u.State.ID, err)
			}
		}
	}
}

// sameAnswer asserts the result is bit-identical to the reference in
// every stream-determined field (timings and I/O charges are measurements
// and legitimately differ).
func sameAnswer(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.Method != ref.Method {
		t.Fatalf("%s: method %v != %v", label, got.Method, ref.Method)
	}
	if !reflect.DeepEqual(got.Region, ref.Region) {
		t.Fatalf("%s: region mismatch:\n ref %d rects %v\n got %d rects %v",
			label, len(ref.Region), ref.Region, len(got.Region), got.Region)
	}
	if got.Accepted != ref.Accepted || got.Rejected != ref.Rejected || got.Candidates != ref.Candidates {
		t.Fatalf("%s: filter marks (a,r,c) = (%d,%d,%d) != (%d,%d,%d)", label,
			got.Accepted, got.Rejected, got.Candidates, ref.Accepted, ref.Rejected, ref.Candidates)
	}
	if got.ObjectsRetrieved != ref.ObjectsRetrieved {
		t.Fatalf("%s: retrieved %d != %d", label, got.ObjectsRetrieved, ref.ObjectsRetrieved)
	}
}

var allMethods = []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce}
