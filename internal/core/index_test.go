package core

import (
	"testing"
)

func TestGridIndexServerEquivalence(t *testing.T) {
	// FR over the grid index must return exactly the same regions as FR
	// over the TPR-tree (the access method only changes cost, not answers).
	cfgTPR := testConfig()
	cfgGrid := testConfig()
	cfgGrid.Index = IndexGrid
	sTPR, gen := loadServer(t, cfgTPR, 1500, 21)
	sGrid, err := NewServer(cfgGrid)
	if err != nil {
		t.Fatal(err)
	}
	if err := sGrid.Load(gen.InitialStates()); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 10; tick++ {
		ups := gen.Advance()
		if err := sTPR.Tick(gen.Now(), ups); err != nil {
			t.Fatal(err)
		}
		if err := sGrid.Tick(gen.Now(), ups); err != nil {
			t.Fatal(err)
		}
	}
	for _, varrho := range []float64{1, 3} {
		q := Query{Rho: RelRhoTest(1500, varrho), L: 60, At: sTPR.Now() + 10}
		a, err := sTPR.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sGrid.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Region.DifferenceArea(b.Region) + b.Region.DifferenceArea(a.Region); d > 1e-6 {
			t.Fatalf("varrho=%g: TPR and grid FR answers differ by area %g", varrho, d)
		}
	}
}

func TestUnknownIndexKindRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Index = "btree"
	if _, err := NewServer(cfg); err == nil {
		t.Error("unknown index kind must be rejected")
	}
}

func TestIndexKindDefaulting(t *testing.T) {
	for _, c := range []struct{ set, want IndexKind }{{"", IndexTPR}, {IndexGrid, IndexGrid}} {
		cfg := testConfig()
		cfg.Index = c.set
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().Index; got != c.want {
			t.Errorf("Index %q resolved to %q, want %q", c.set, got, c.want)
		}
	}
}

func TestBxIndexServerEquivalence(t *testing.T) {
	// FR over the B^x-tree must return exactly the same regions as FR over
	// the TPR-tree.
	cfgTPR := testConfig()
	cfgBx := testConfig()
	cfgBx.Index = IndexBx
	sTPR, gen := loadServer(t, cfgTPR, 1500, 22)
	sBx, err := NewServer(cfgBx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sBx.Load(gen.InitialStates()); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 10; tick++ {
		ups := gen.Advance()
		if err := sTPR.Tick(gen.Now(), ups); err != nil {
			t.Fatal(err)
		}
		if err := sBx.Tick(gen.Now(), ups); err != nil {
			t.Fatal(err)
		}
	}
	for _, varrho := range []float64{1, 3} {
		q := Query{Rho: RelRhoTest(1500, varrho), L: 60, At: sTPR.Now() + 10}
		a, err := sTPR.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sBx.Snapshot(q, FR)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Region.DifferenceArea(b.Region) + b.Region.DifferenceArea(a.Region); d > 1e-6 {
			t.Fatalf("varrho=%g: TPR and Bx FR answers differ by area %g", varrho, d)
		}
	}
}
