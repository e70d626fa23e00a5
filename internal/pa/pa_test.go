package pa

import (
	"math"
	"math/rand"
	"testing"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

func area1000() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000} }

func newSurface(t *testing.T, g, k int, h motion.Tick, l float64) *Surface {
	t.Helper()
	s, err := New(Config{Area: area1000(), G: g, Degree: k, Horizon: h, L: l, MD: 128})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Area: area1000()},
		{Area: area1000(), G: 4},
		{Area: area1000(), G: 4, Degree: 5},
		{Area: area1000(), G: 4, Degree: 5, L: -1},
		{Area: area1000(), G: 4, Degree: 5, Horizon: -1, L: 30},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

// exactDensity is the true point density for a set of states.
func exactDensity(states []motion.State, qt motion.Tick, p geom.Point, l float64) float64 {
	n := 0
	for _, s := range states {
		q := s.PositionAt(qt)
		if q.X > p.X-l/2 && q.X <= p.X+l/2 && q.Y > p.Y-l/2 && q.Y <= p.Y+l/2 {
			n++
		}
	}
	return float64(n) / (l * l)
}

func clusterStates(rng *rand.Rand, n int, cx, cy, spread float64) []motion.State {
	states := make([]motion.State, n)
	for i := range states {
		states[i] = motion.State{
			ID:  motion.ObjectID(i),
			Pos: geom.Point{X: cx + rng.NormFloat64()*spread, Y: cy + rng.NormFloat64()*spread},
			Ref: 0,
		}
	}
	return states
}

func TestDensityApproximatesCluster(t *testing.T) {
	// 200 objects clustered at (500, 500): the approximated density near
	// the center must be clearly higher than far away, and in the right
	// ballpark of the exact density.
	s := newSurface(t, 10, 5, 0, 60)
	rng := rand.New(rand.NewSource(1))
	states := clusterStates(rng, 200, 500, 500, 25)
	s.Advance(0)
	for _, st := range states {
		s.Insert(st)
	}
	center := geom.Point{X: 500, Y: 500}
	far := geom.Point{X: 100, Y: 900}
	dc := s.Density(0, center)
	df := s.Density(0, far)
	ec := exactDensity(states, 0, center, 60)
	if dc < 3*math.Abs(df)+1e-12 {
		t.Errorf("center density %g not clearly above far density %g", dc, df)
	}
	if dc < 0.3*ec || dc > 3*ec {
		t.Errorf("center density %g too far from exact %g", dc, ec)
	}
}

func TestInsertDeleteRestoresZero(t *testing.T) {
	s := newSurface(t, 4, 4, 10, 30)
	s.Advance(0)
	st := motion.State{ID: 1, Pos: geom.Point{X: 400, Y: 600}, Vel: geom.Vec{X: 1, Y: -0.5}, Ref: 0}
	s.Insert(st)
	s.Delete(st, 0)
	for _, qt := range []motion.Tick{0, 5, 10} {
		for _, p := range []geom.Point{{X: 400, Y: 600}, {X: 405, Y: 597}, {X: 100, Y: 100}} {
			if d := s.Density(qt, p); d != 0 {
				t.Fatalf("density %g at %v t=%d after insert+delete, want exact 0", d, p, qt)
			}
		}
	}
}

func TestMovingObjectDensityFollows(t *testing.T) {
	// An object moving right: at later timestamps the density bump must be
	// at the predicted position, not the original one.
	s := newSurface(t, 10, 5, 50, 40)
	s.Advance(0)
	st := motion.State{ID: 1, Pos: geom.Point{X: 200, Y: 500}, Vel: geom.Vec{X: 10, Y: 0}, Ref: 0}
	// Insert many copies to make the bump strong.
	for i := 0; i < 50; i++ {
		st.ID = motion.ObjectID(i)
		s.Insert(st)
	}
	at := s.Density(50, geom.Point{X: 700, Y: 500}) // 200 + 10*50
	behind := s.Density(50, geom.Point{X: 200, Y: 500})
	if at < 2*math.Abs(behind) {
		t.Errorf("density did not follow the object: at=%g behind=%g", at, behind)
	}
}

func TestAdvanceRotation(t *testing.T) {
	s := newSurface(t, 4, 3, 5, 30)
	s.Advance(0)
	st := motion.State{ID: 1, Pos: geom.Point{X: 500, Y: 500}, Ref: 0}
	s.Insert(st)
	if d := s.Density(5, geom.Point{X: 500, Y: 500}); d == 0 {
		t.Fatal("density at horizon must be nonzero after insert")
	}
	s.Advance(3)
	if d := s.Density(4, geom.Point{X: 500, Y: 500}); d == 0 {
		t.Error("retained timestamp lost its surface")
	}
	if d := s.Density(7, geom.Point{X: 500, Y: 500}); d != 0 {
		t.Errorf("fresh slot must be zero, got %g", d)
	}
	if d := s.Density(2, geom.Point{X: 500, Y: 500}); d != 0 {
		t.Errorf("out-of-window density must be zero, got %g", d)
	}
}

func TestMemoryBytes(t *testing.T) {
	s := newSurface(t, 10, 5, 90, 30)
	want := 91 * 100 * 21 * 8
	if got := s.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestDenseRegionFindsCluster(t *testing.T) {
	s := newSurface(t, 10, 5, 0, 60)
	rng := rand.New(rand.NewSource(2))
	states := clusterStates(rng, 300, 500, 500, 20)
	s.Advance(0)
	for _, st := range states {
		s.Insert(st)
	}
	rho := 0.5 * exactDensity(states, 0, geom.Point{X: 500, Y: 500}, 60)
	region, err := s.DenseRegion(0, rho)
	if err != nil {
		t.Fatal(err)
	}
	if len(region) == 0 {
		t.Fatal("expected a dense region around the cluster")
	}
	if !region.Contains(geom.Point{X: 500, Y: 500}) {
		t.Error("dense region must contain the cluster center")
	}
	if region.Contains(geom.Point{X: 100, Y: 900}) {
		t.Error("dense region must not contain the empty corner")
	}
	// Every reported rect stays within the area.
	for _, r := range region {
		if !area1000().ContainsRect(r) {
			t.Errorf("region rect %v outside area", r)
		}
	}
}

func TestDenseRegionMatchesGridScan(t *testing.T) {
	// Branch-and-bound and the trivial grid scan must agree almost
	// everywhere (both decide sub-floor boxes by center evaluation, but
	// B&B can settle whole boxes early via sound bounds — those decisions
	// are consistent with any center evaluation inside).
	s := newSurface(t, 5, 5, 0, 80)
	rng := rand.New(rand.NewSource(3))
	s.Advance(0)
	for _, st := range clusterStates(rng, 150, 300, 700, 40) {
		s.Insert(st)
	}
	for _, st := range clusterStates(rng, 100, 700, 300, 60) {
		s.Insert(st)
	}
	rho := 0.6 * s.Density(0, geom.Point{X: 300, Y: 700})
	bb, err := s.DenseRegion(0, rho)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.DenseRegionGrid(0, rho)
	if err != nil {
		t.Fatal(err)
	}
	ba, ga := bb.Area(), grid.Area()
	if ga == 0 {
		t.Fatal("grid scan found nothing; test degenerate")
	}
	if math.Abs(ba-ga) > 0.05*ga {
		t.Errorf("branch-and-bound area %g vs grid area %g differ by more than 5%%", ba, ga)
	}
}

func TestDenseRegionValidation(t *testing.T) {
	s := newSurface(t, 4, 3, 5, 30)
	s.Advance(0)
	if _, err := s.DenseRegion(99, 1); err == nil {
		t.Error("out-of-window timestamp must be rejected")
	}
	if _, err := s.DenseRegion(0, -1); err == nil {
		t.Error("negative rho must be rejected")
	}
	if _, err := s.DenseRegionGrid(99, 1); err == nil {
		t.Error("grid scan out-of-window timestamp must be rejected")
	}
}

func TestAccuracyImprovesWithDegreeAndCells(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	states := clusterStates(rng, 400, 350, 350, 80)
	l := 60.0

	rms := func(g, k int) float64 {
		s, err := New(Config{Area: area1000(), G: g, Degree: k, Horizon: 0, L: l, MD: 128})
		if err != nil {
			t.Fatal(err)
		}
		s.Advance(0)
		for _, st := range states {
			s.Insert(st)
		}
		var sum float64
		const samples = 400
		r := rand.New(rand.NewSource(99))
		for i := 0; i < samples; i++ {
			p := geom.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
			d := s.Density(0, p) - exactDensity(states, 0, p, l)
			sum += d * d
		}
		return math.Sqrt(sum / samples)
	}

	coarse := rms(2, 2)
	fine := rms(12, 5)
	if fine >= coarse {
		t.Errorf("finer approximation must reduce RMS error: coarse=%g fine=%g", coarse, fine)
	}
}

func TestContours(t *testing.T) {
	s := newSurface(t, 8, 5, 0, 60)
	rng := rand.New(rand.NewSource(5))
	states := clusterStates(rng, 300, 500, 500, 30)
	s.Advance(0)
	for _, st := range states {
		s.Insert(st)
	}
	level := 0.5 * s.Density(0, geom.Point{X: 500, Y: 500})
	segs, err := s.Contours(0, level, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("expected contour segments around the cluster")
	}
	// All segment endpoints inside the area, and near the level set:
	// density at segment midpoints should be close to the level.
	var worst float64
	for _, sg := range segs {
		for _, p := range []geom.Point{sg.A, sg.B} {
			if !area1000().ContainsClosed(p) {
				t.Fatalf("contour point %v outside area", p)
			}
		}
		mid := geom.Point{X: (sg.A.X + sg.B.X) / 2, Y: (sg.A.Y + sg.B.Y) / 2}
		if d := math.Abs(s.Density(0, mid) - level); d > worst {
			worst = d
		}
	}
	if worst > level {
		t.Errorf("contour deviates from level by %g (level %g)", worst, level)
	}
	if _, err := s.Contours(99, level, 64); err == nil {
		t.Error("out-of-window contour timestamp must be rejected")
	}
	if _, err := s.Contours(0, level, 1); err == nil {
		t.Error("resolution < 2 must be rejected")
	}
}

func BenchmarkInsert(b *testing.B) {
	s, err := New(Config{Area: area1000(), G: 10, Degree: 5, Horizon: 90, L: 30, MD: 128})
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(motion.State{
			ID:  motion.ObjectID(i),
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Vel: geom.Vec{X: 1, Y: 1},
			Ref: 0,
		})
	}
}

func BenchmarkDenseRegion(b *testing.B) {
	s, err := New(Config{Area: area1000(), G: 10, Degree: 5, Horizon: 0, L: 60, MD: 256})
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(0)
	rng := rand.New(rand.NewSource(1))
	for _, st := range clusterStates(rng, 500, 500, 500, 100) {
		s.Insert(st)
	}
	rho := 0.5 * s.Density(0, geom.Point{X: 500, Y: 500})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DenseRegion(0, rho); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAdvanceFarJumpClearsEverything(t *testing.T) {
	s := newSurface(t, 4, 3, 5, 30)
	s.Advance(0)
	s.Insert(motion.State{ID: 1, Pos: geom.Point{X: 500, Y: 500}, Ref: 0})
	s.Advance(100)
	for qt := motion.Tick(100); qt <= 105; qt++ {
		if d := s.Density(qt, geom.Point{X: 500, Y: 500}); d != 0 {
			t.Fatalf("density at t=%d is %g after far jump, want 0", qt, d)
		}
	}
}

func TestApplyDispatch(t *testing.T) {
	s := newSurface(t, 4, 3, 5, 30)
	s.Advance(0)
	st := motion.State{ID: 1, Pos: geom.Point{X: 500, Y: 500}, Ref: 0}
	s.Apply(motion.NewInsert(st))
	if d := s.Density(0, geom.Point{X: 500, Y: 500}); d == 0 {
		t.Fatal("Apply(insert) had no effect")
	}
	s.Apply(motion.NewDelete(st, 0))
	if d := s.Density(0, geom.Point{X: 500, Y: 500}); d != 0 {
		t.Fatalf("Apply(delete) left density %g", d)
	}
}
