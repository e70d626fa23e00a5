package pa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pdr/internal/cheb"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/parallel"
)

// referenceApply is the surface update as it stood before it became
// slot-parallel and before its kernel shed its trigonometry: one record,
// timestamp by timestamp, one full Lemma-4 increment — both axes' factors
// through math.Acos and math.Sincos — per overlapped polynomial cell. Kept as
// the reference of the PA tolerance contract's cross-kernel clause
// (DESIGN.md): a different kernel, so the comparison is bounded, not
// bit-exact.
func referenceApply(s *Surface, u motion.Update) {
	st, from, delta := u.State, u.At, -1/(s.cfg.L*s.cfg.L)
	if u.Kind == motion.Insert {
		from, delta = st.Ref, 1/(s.cfg.L*s.cfg.L)
		if !s.filled {
			s.base, s.filled = from, true
		}
	}
	lo, hi := from, st.Ref+s.cfg.Horizon
	if lo < s.base {
		lo = s.base
	}
	if hi > s.base+s.cfg.Horizon {
		hi = s.base + s.cfg.Horizon
	}
	for t := lo; t <= hi; t++ {
		p := st.PositionAt(t)
		if !s.cfg.Area.Contains(p) {
			continue
		}
		box := geom.RectFromCenter(p, s.cfg.L)
		gx1, gy1 := s.cellOf(geom.Point{X: box.MinX, Y: box.MinY})
		gx2, gy2 := s.cellOf(geom.Point{X: box.MaxX, Y: box.MaxY})
		slot := s.slot(t)
		for gx := gx1; gx <= gx2; gx++ {
			for gy := gy1; gy <= gy2; gy++ {
				cell := s.cellRect(gx, gy)
				ov := cell.Intersect(box)
				if ov.IsEmpty() {
					continue
				}
				referenceAddBoxDelta(slot[gy*s.cfg.G+gx],
					s.normX(ov.MinX, cell), s.normY(ov.MinY, cell),
					s.normX(ov.MaxX, cell), s.normY(ov.MaxY, cell), delta)
			}
		}
	}
}

// referenceAddBoxDelta is Lemma 4 as the paper prices it and as
// cheb.AddBoxDelta computed it until PR 24: arccos and sincos of every
// endpoint, four multiplies per coefficient.
func referenceAddBoxDelta(s *cheb.Series2D, x1, y1, x2, y2, value float64) {
	clamp := func(v float64) float64 { return math.Max(-1, math.Min(1, v)) }
	x1, x2, y1, y2 = clamp(x1), clamp(x2), clamp(y1), clamp(y2)
	if x2 <= x1 || y2 <= y1 {
		return
	}
	factors := func(z1, z2 float64) []float64 {
		a := make([]float64, s.K+1)
		th1, th2 := math.Acos(z1), math.Acos(z2)
		s1, c1 := math.Sincos(th1)
		s2, c2 := math.Sincos(th2)
		a[0] = th1 - th2
		si1, ci1, si2, ci2 := s1, c1, s2, c2
		for i := 1; i < len(a); i++ {
			a[i] = (si1 - si2) / float64(i)
			si1, ci1 = si1*c1+ci1*s1, ci1*c1-si1*s1
			si2, ci2 = si2*c2+ci2*s2, ci2*c2-si2*s2
		}
		return a
	}
	ax, ay := factors(x1, x2), factors(y1, y2)
	scale := value / (math.Pi * math.Pi)
	for i := 0; i <= s.K; i++ {
		for j := 0; j <= s.K-i; j++ {
			c := 4.0
			if i == 0 {
				c /= 2
			}
			if j == 0 {
				c /= 2
			}
			s.A[s.Index(i, j)] += scale * c * ax[i] * ay[j]
		}
	}
}

// applyBatch runs one batch the way the engine does: Begin, then the slots
// as items of a worker pool's fan-out.
func applyBatch(s *Surface, pool *parallel.Pool, ups []motion.Update) {
	pool.ForEach(s.Begin(ups), func(k int) { s.ApplySlot(k, ups) })
}

// sameCoefficients fails the test unless every coefficient of every slot of
// got equals want's float bit for float bit.
func sameCoefficients(t *testing.T, label string, want, got *Surface) {
	t.Helper()
	if got.base != want.base || got.filled != want.filled {
		t.Fatalf("%s: window (base %d, filled %v), want (%d, %v)", label, got.base, got.filled, want.base, want.filled)
	}
	for k := range want.slots {
		for c := range want.slots[k] {
			for i, w := range want.slots[k][c].A {
				if g := got.slots[k][c].A[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: slot %d cell %d coefficient %d = %g (%x), want %g (%x)",
						label, k, c, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// coeffTolerance is the cross-kernel clause of the PA tolerance contract
// (DESIGN.md): every coefficient is within coeffTolerance times the sum of
// the |value|s of the records applied so far of the reference kernel's.
const coeffTolerance = 1e-12

// closeCoefficients fails the test unless got's window equals want's and
// every coefficient of every slot is within bound of want's.
func closeCoefficients(t *testing.T, label string, want, got *Surface, bound float64) {
	t.Helper()
	if got.base != want.base || got.filled != want.filled {
		t.Fatalf("%s: window (base %d, filled %v), want (%d, %v)", label, got.base, got.filled, want.base, want.filled)
	}
	for k := range want.slots {
		for c := range want.slots[k] {
			for i, w := range want.slots[k][c].A {
				if g := got.slots[k][c].A[i]; !(math.Abs(g-w) <= bound) {
					t.Fatalf("%s: slot %d cell %d coefficient %d = %g, reference %g: off by %.3g, allowed %.3g",
						label, k, c, i, g, w, math.Abs(g-w), bound)
				}
			}
		}
	}
}

// TestBatchMatchesPerRecord drives four surfaces through the same 40 ticks
// of random insert/delete streams — the reference loop, the public
// per-record Apply, and the batch through a 2- and a 17-worker pool. After
// every batch the three routes through the product kernel, one binary, agree
// on every coefficient of every slot bit for bit; the reference loop, a
// different kernel, agrees within the tolerance contract's bound. The stream
// holds what the kernel branches on: positions exactly on
// polynomial-cell edges, boxes cut by the area boundary, objects that leave
// the area mid-horizon, deletes long after the movement's reference time,
// an Advance that rotates more than H slots, and a first batch on a surface
// nothing has anchored yet.
func TestBatchMatchesPerRecord(t *testing.T) {
	// 4x4 cells have edges that are exact floats and are wider than a box.
	// 12x12 cells are narrower (a box covers a whole cell between two cut
	// ones) and their edges are not exact: 7 cell widths is a float that
	// divides back to 6.99.., so a box starting exactly there is assigned a
	// first cell it does not overlap.
	for _, g := range []int{4, 12} {
		t.Run(fmt.Sprintf("G=%d", g), func(t *testing.T) { batchMatchesPerRecord(t, g) })
	}
}

func batchMatchesPerRecord(t *testing.T, g int) {
	const h = motion.Tick(12)
	cfg := Config{Area: area1000(), G: g, Degree: 3, Horizon: h, L: 100, MD: 64}
	var surfaces [4]*Surface
	for i := range surfaces {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		surfaces[i] = s
	}
	ref, rec := surfaces[0], surfaces[1]
	batched := map[*Surface]*parallel.Pool{surfaces[2]: parallel.New(2), surfaces[3]: parallel.New(17)}

	rng := rand.New(rand.NewSource(18))
	// Centres at the area's rim, on every cell edge, and where the box
	// (centre ± 50) starts or ends exactly on a cell edge or an ulp off it.
	edges := []float64{0, 40, 960, 999.5}
	for i := 1; i < g; i++ {
		e := float64(i) * ref.cellW
		for _, c := range []float64{e, e - 50, e + 50} {
			edges = append(edges, c, math.Nextafter(c, 0), math.Nextafter(c, 1000))
		}
	}
	coord := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Float64() * 1000
	}
	var live []motion.State
	next := motion.ObjectID(1)
	fresh := func(now motion.Tick) motion.State {
		st := motion.State{
			ID:  next,
			Pos: geom.Point{X: coord(), Y: coord()},
			Vel: geom.Vec{X: (rng.Float64() - 0.5) * 60, Y: (rng.Float64() - 0.5) * 60}, // many leave within H
			Ref: now,
		}
		if rng.Intn(4) == 0 {
			st.Vel = geom.Vec{}
		}
		next++
		return st
	}
	now := motion.Tick(5)
	applied := 0 // records so far: each adds ±unit to a coefficient at most once
	for tick := 0; tick < 40; tick++ {
		var ups []motion.Update
		if tick > 0 { // the first batch lands unanchored, as Server.Load's does
			now++
			if tick == 20 {
				now += h + 5 // every slot rotates out
			}
			for _, s := range surfaces {
				s.Advance(now)
			}
			for i := 0; i < 6 && len(live) > 0; i++ {
				j := rng.Intn(len(live))
				ups = append(ups, motion.NewDelete(live[j], now))
				live = append(live[:j], live[j+1:]...)
			}
		}
		for i := 0; i < 10; i++ {
			st := fresh(now)
			ups = append(ups, motion.NewInsert(st))
			live = append(live, st)
		}
		rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
		for _, u := range ups {
			referenceApply(ref, u)
			rec.Apply(u)
		}
		for s, pool := range batched {
			applyBatch(s, pool, ups)
		}
		applied += len(ups)
		label := fmt.Sprintf("tick %d (now %d)", tick, now)
		closeCoefficients(t, label+": per-record Apply vs the reference kernel", ref, rec, coeffTolerance*float64(applied)*rec.unit)
		for s, pool := range batched {
			sameCoefficients(t, fmt.Sprintf("%s: batch at %d workers", label, pool.Workers()), rec, s)
		}
	}
	var mass float64
	for _, series := range ref.slot(now) {
		mass += math.Abs(series.A[0])
	}
	if mass == 0 {
		t.Fatal("the stream left the current timestamp empty: the comparison pins nothing")
	}
}

// benchBatch is 1,000 inserts over the paper's default surface (H=90, 10x10
// polynomials of degree 5, l=30): about one tick of the benchmark's update
// stream.
func benchBatch(tb testing.TB) (*Surface, []motion.Update) {
	tb.Helper()
	s, err := New(Config{Area: area1000(), G: 10, Degree: 5, Horizon: 90, L: 30, MD: 256})
	if err != nil {
		tb.Fatal(err)
	}
	s.Advance(0)
	rng := rand.New(rand.NewSource(1))
	ups := make([]motion.Update, 1000)
	for i := range ups {
		ups[i] = motion.NewInsert(motion.State{
			ID:  motion.ObjectID(i),
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Vel: geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1},
		})
	}
	return s, ups
}

// batchOp is BenchmarkSurfaceBatch's call: benchBatch's 1,000 inserts
// applied slot by slot on one goroutine, the surface's share of one tick.
func batchOp(tb testing.TB) func() {
	s, ups := benchBatch(tb)
	return func() {
		for k, n := 0, s.Begin(ups); k < n; k++ {
			s.ApplySlot(k, ups)
		}
	}
}

// TestBatchAllocationFree pins the steady-state batch, BenchmarkSurfaceBatch's
// call, at zero allocations, and Apply, the batch of one, with it: factor
// scratch is owned per slot, nothing is pooled or made per call. The batch is
// counted over 20 calls: the five objects of an OS thread the runtime may
// start while they run stay under one a call, and an allocation per batch
// does not.
func TestBatchAllocationFree(t *testing.T) {
	batch := batchOp(t)
	if n := testing.AllocsPerRun(20, batch); n != 0 {
		t.Errorf("BenchmarkSurfaceBatch: %v allocs/op, want 0", n)
	}
	s, ups := benchBatch(t)
	if n := testing.AllocsPerRun(200, func() { s.Apply(ups[0]) }); n != 0 {
		t.Errorf("Apply: %v allocs/op, want 0", n)
	}
}

// BenchmarkSurfaceBatch is the surface's share of one tick run on one
// goroutine (TestBatchAllocationFree pins it at 0 allocations);
// BenchmarkSurfaceBatchWorkers2 is the same batch as the items of a
// two-worker fan-out.
func BenchmarkSurfaceBatch(b *testing.B) {
	op := batchOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkSurfaceBatchWorkers2(b *testing.B) {
	s, ups := benchBatch(b)
	pool := parallel.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyBatch(s, pool, ups)
	}
}
