package core

import (
	"strings"
	"testing"
)

func TestRecommendExactAlwaysFR(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 500, 51)
	p, err := s.Recommend(Query{Rho: relRho(500, 2), L: 60, At: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != FR {
		t.Errorf("exact mode recommended %v", p.Method)
	}
}

func TestRecommendMismatchedLFallsBackToFR(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 500, 52)
	p, err := s.Recommend(Query{Rho: relRho(500, 2), L: 100, At: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != FR {
		t.Errorf("mismatched l recommended %v", p.Method)
	}
	if !strings.Contains(p.Reason, "l=") {
		t.Errorf("reason should explain the l mismatch: %q", p.Reason)
	}
}

func TestRecommendEmptyServerFR(t *testing.T) {
	s, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Recommend(Query{Rho: 0.001, L: 60, At: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != FR || p.Candidates != 0 {
		t.Errorf("empty server plan: %+v", p)
	}
}

func TestRecommendHeavyWorkloadPA(t *testing.T) {
	// A large clustered workload at a threshold with many candidates: the
	// estimated refinement volume must push the planner to PA.
	s, _ := loadServer(t, testConfig(), 30000, 53)
	q := Query{Rho: relRho(30000, 1), L: 60, At: 0}
	p, err := s.Recommend(q, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != PA {
		t.Errorf("heavy workload recommended %v (refine=%.0f budget=%.0f, %d candidates)",
			p.Method, p.RefineObjects, p.PABudget, p.Candidates)
	}
	if p.RefineObjects <= p.PABudget {
		t.Errorf("expected refine estimate above budget: %+v", p)
	}
	// The recommendation must actually be executable.
	if _, err := s.Snapshot(q, p.Method); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendValidation(t *testing.T) {
	s, _ := loadServer(t, testConfig(), 100, 54)
	if _, err := s.Recommend(Query{Rho: -1, L: 60, At: 0}, true); err == nil {
		t.Error("invalid query must be rejected")
	}
}
