package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	s, g := loadServer(t, testConfig(), 1200, 31)
	for tick := 0; tick < 8; tick++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Now() != s.Now() {
		t.Fatalf("restored Now = %d, want %d", restored.Now(), s.Now())
	}
	if restored.NumObjects() != s.NumObjects() {
		t.Fatalf("restored %d objects, want %d", restored.NumObjects(), s.NumObjects())
	}

	// Every method answers identically on both servers.
	for _, m := range []Method{FR, PA, DHOptimistic, DHPessimistic, BruteForce} {
		for _, qt := range []motion.Tick{s.Now(), s.Now() + 15, s.Now() + 30} {
			q := Query{Rho: relRho(1200, 2), L: 60, At: qt}
			a, err := s.Snapshot(q, m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Snapshot(q, m)
			if err != nil {
				t.Fatal(err)
			}
			if d := a.Region.DifferenceArea(b.Region) + b.Region.DifferenceArea(a.Region); d > 1e-9 {
				t.Fatalf("%v at qt=%d: original and restored answers differ by %g", m, qt, d)
			}
		}
	}

	// The restored server keeps working: apply more updates and query.
	for tick := 0; tick < 3; tick++ {
		ups := g.Advance()
		if err := restored.Tick(g.Now(), ups); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := restored.Snapshot(Query{Rho: 0.001, L: 60, At: restored.Now()}, FR); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreParentCheckpoint restores two pdr-checkpoint-v1 files written by
// commit 6c96f86 — the last one whose Config had an Index field — from a
// streamConfig(1) server that had replayed makeStream: one with the default
// index, one with Config.Index = "grid". gob drops the stream fields the
// receiver lacks (Index, and Shards since the engine is one partition), so
// both come back as TPR-tree servers: the remaining Config
// fields round-trip, and every FR/PA/DH answer equals, bit for bit, that of a
// fresh server fed the same stream.
func TestRestoreParentCheckpoint(t *testing.T) {
	fresh := streamServer(t, makeStream(), 1)
	for _, name := range []string{"checkpoint_v1_default.gob", "checkpoint_v1_grid.gob"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open("testdata/" + name)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			restored, err := Restore(f)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restored.Config(), fresh.Config(); got != want {
				t.Fatalf("restored config %+v, want %+v", got, want)
			}
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

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage input must be rejected")
	}
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must be rejected")
	}
}

func TestSaveDeterministic(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 300, 32)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of the same server differ")
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
