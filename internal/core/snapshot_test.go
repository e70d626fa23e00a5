package core

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// rebuild builds a second server from s's live set: the same configuration,
// the clock moved to s's, then every live movement loaded at once, as
// pdrserve -data preloads one.
func rebuild(t *testing.T, s *Server) *Server {
	t.Helper()
	return rebuildFrom(t, s.Config(), s.Now(), s.LiveStates())
}

// rebuildFrom builds a server with configuration cfg, moves its clock to now,
// then loads states.
func rebuildFrom(t *testing.T, cfg Config, now motion.Tick, states []motion.State) *Server {
	t.Helper()
	r, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Tick(now, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(states); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkpointV1 is the layout of the pdr-checkpoint-v1 files in testdata: the
// configuration, the clock and the live set of the server that wrote them.
type checkpointV1 struct {
	Magic  string
	Config Config
	Now    motion.Tick
	States []motion.State
}

// TestRestoreParentCheckpoint rebuilds servers from two pdr-checkpoint-v1
// files written by commit 6c96f86 — the last one whose Config had an Index
// field — from a streamConfig(1) server that had replayed makeStream: one
// with the default index, one with Config.Index = "grid". gob drops the
// fields the receiver lacks (Index, and Shards since the engine is one
// partition). Each file's configuration, clock and live set go through
// rebuildFrom, the remaining Config fields must equal a fresh server's, and
// every FR/PA/DH answer must equal, bit for bit, that of a fresh server fed
// the same stream: a live set recorded by an earlier version still loads into
// the same summaries.
func TestRestoreParentCheckpoint(t *testing.T) {
	fresh := streamServer(t, makeStream(), 1)
	for _, name := range []string{"checkpoint_v1_default.gob", "checkpoint_v1_grid.gob"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open("testdata/" + name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var cp checkpointV1
			if err := gob.NewDecoder(f).Decode(&cp); err != nil {
				t.Fatal(err)
			}
			if cp.Magic != "pdr-checkpoint-v1" {
				t.Fatalf("magic %q, want pdr-checkpoint-v1", cp.Magic)
			}
			if got, want := cp.Config, fresh.Config(); got != want {
				t.Fatalf("checkpoint config %+v, want %+v", got, want)
			}
			restored := rebuildFrom(t, cp.Config, cp.Now, cp.States)
			if restored.Now() != fresh.Now() || restored.NumObjects() != fresh.NumObjects() {
				t.Fatalf("restored now=%d n=%d, want now=%d n=%d",
					restored.Now(), restored.NumObjects(), fresh.Now(), fresh.NumObjects())
			}
			for _, q := range streamQueries(fresh.Now()) {
				for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic} {
					want, err := fresh.Snapshot(q, m)
					if err != nil {
						t.Fatal(err)
					}
					got, err := restored.Snapshot(q, m)
					if err != nil {
						t.Fatal(err)
					}
					sameAnswer(t, fmt.Sprintf("%v at %d", m, q.At), want, got)
				}
			}
		})
	}
}

// TestRebuildFromLiveSet: a server rebuilt from the live set of one that
// replayed makeStream answers like it, bit for bit, by FR, PA and both DH
// baselines at every streamQueries timestamp. The summaries exist only as the
// sum of every write since start-up, and a rebuild replays just the live
// movements, so this is the check that the two agree.
func TestRebuildFromLiveSet(t *testing.T) {
	streamed := streamServer(t, makeStream(), 1)
	rebuilt := rebuild(t, streamed)
	if rebuilt.Now() != streamed.Now() || rebuilt.NumObjects() != streamed.NumObjects() {
		t.Fatalf("rebuilt now=%d n=%d, want now=%d n=%d",
			rebuilt.Now(), rebuilt.NumObjects(), streamed.Now(), streamed.NumObjects())
	}
	for _, q := range streamQueries(streamed.Now()) {
		for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic} {
			want, err := streamed.Snapshot(q, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebuilt.Snapshot(q, m)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("%v at %d", m, q.At), want, got)
		}
	}
}

func TestPastSnapshotMatchesLiveAnswers(t *testing.T) {
	cfg := testConfig()
	cfg.KeepHistory = true
	s, g := loadServer(t, cfg, 1000, 41)
	q := Query{Rho: relRho(1000, 2), L: 60}

	// Capture the exact answer at each tick while live.
	captured := map[motion.Tick]float64{}
	regions := map[motion.Tick]geom.Region{}
	for tick := 0; tick < 12; tick++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			t.Fatal(err)
		}
		sub := q
		sub.At = s.Now()
		r, err := s.Snapshot(sub, BruteForce)
		if err != nil {
			t.Fatal(err)
		}
		captured[s.Now()] = r.Region.Area()
		regions[s.Now()] = r.Region
	}
	// Replay the past from the archive.
	for qt, wantArea := range captured {
		if qt >= s.Now() {
			continue
		}
		sub := q
		sub.At = qt
		r, err := s.PastSnapshot(sub)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Region.Area()-wantArea) > 1e-6 {
			t.Fatalf("t=%d: past area %g, live area %g", qt, r.Region.Area(), wantArea)
		}
		if d := r.Region.DifferenceArea(regions[qt]) + regions[qt].DifferenceArea(r.Region); d > 1e-6 {
			t.Fatalf("t=%d: past and live regions differ by %g", qt, d)
		}
	}
}

func TestPastSnapshotValidation(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 50, 42) // history disabled
	if _, err := s.PastSnapshot(Query{Rho: 1, L: 60, At: 0}); err == nil {
		t.Error("history-disabled PastSnapshot must fail")
	}
	cfg := testConfig()
	cfg.KeepHistory = true
	s2, g := loadServer(t, cfg, 50, 43)
	for i := 0; i < 3; i++ {
		if err := s2.Tick(g.Now()+motion.Tick(i)+1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s2.PastSnapshot(Query{Rho: 1, L: 60, At: s2.Now()}); err == nil {
		t.Error("PastSnapshot at now must fail (use Snapshot)")
	}
	if _, err := s2.PastSnapshot(Query{Rho: -1, L: 60, At: 0}); err == nil {
		t.Error("negative rho must fail")
	}
	if _, err := s2.PastSnapshot(Query{Rho: math.NaN(), L: 60, At: 0}); err == nil {
		t.Error("rho=NaN must fail")
	}
	if _, err := s2.PastSnapshot(Query{Rho: 1, L: 60, At: 1}); err != nil {
		t.Errorf("valid past query failed: %v", err)
	}
}
