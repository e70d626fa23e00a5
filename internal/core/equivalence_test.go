package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pdr/internal/cheb"
	"pdr/internal/dh"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/pa"
	"pdr/internal/storage"
	"pdr/internal/sweep"
	"pdr/internal/telemetry"
	"pdr/internal/tprtree"
)

// answer is one labelled result of the fixed query set streamAnswers runs.
type answer struct {
	label string
	res   *Result
}

// streamQueries is the snapshot part of the fixed query set: now, inside the
// window, and the horizon's last tick.
func streamQueries(now motion.Tick) []Query {
	return []Query{
		{Rho: 0.0001, L: 100, At: now},
		{Rho: 0.0003, L: 100, At: now + 7},
		{Rho: 0.0001, L: 100, At: now + 90},
	}
}

// streamAnswers runs the fixed query set of the exactness tests against a
// server that has replayed makeStream: three snapshot timestamps (now, inside
// the window, the horizon's last tick) and a six-tick interval for every
// method, plus one past snapshot.
func streamAnswers(t *testing.T, s *Server) []answer {
	t.Helper()
	now := s.Now()
	var out []answer
	add := func(label string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, answer{label, res})
	}
	for qi, q := range streamQueries(now) {
		for _, m := range allMethods {
			res, err := s.Snapshot(q, m)
			add(fmt.Sprintf("snapshot/%d/%v", qi, m), res, err)
		}
	}
	for _, m := range allMethods {
		res, err := s.Interval(Query{Rho: 0.0001, L: 100, At: now}, now+5, m)
		add(fmt.Sprintf("interval/%v", m), res, err)
	}
	res, err := s.PastSnapshot(Query{Rho: 0.0001, L: 100, At: 4})
	add("past", res, err)
	return out
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_answers.txt from this build's answers")

// TestGoldenAnswers pins the answers of the fixed stream and query set to a
// checked-in file, one line per query, in plain columns:
//
//	label nrects rect-digest accepted rejected candidates retrieved
//
// rect-digest is a SHA-256 over the rectangles' float bits and nothing else,
// so a diff of the file tells "the answer changed" (a digest moved — never
// acceptable for a kernel or retrieval change) from "the work changed" (only
// the retrieved column moved). The digests go back to the single-lock engine
// the unified one replaced; -update-golden rewrites the file, which is only
// right when a column is meant to change.
func TestGoldenAnswers(t *testing.T) {
	const path = "testdata/golden_answers.txt"
	var b strings.Builder
	for _, a := range streamAnswers(t, streamServer(t, makeStream(), 1)) {
		h := sha256.New()
		var buf [8]byte
		for _, r := range a.res.Region {
			for _, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		fmt.Fprintf(&b, "%s %d %x %d %d %d %d\n", a.label, len(a.res.Region), h.Sum(nil),
			a.res.Accepted, a.res.Rejected, a.res.Candidates, a.res.ObjectsRetrieved)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			t.Fatalf("answer differs from the golden:\n want %s\n got  %s", line, got[min(i, len(got)-1)])
		}
	}
}

// samePointSet reports whether two regions cover exactly the same points (FR
// and the brute force decompose the same region into different rectangles):
// neither leaves a piece of the other uncovered.
func samePointSet(a, b geom.Region) bool {
	return len(geom.Subtract(a, b)) == 0 && len(geom.Subtract(b, a)) == 0
}

// differentialStream drives s through a seeded random load/tick/apply/
// bad-update stream and calls check after every step with the clock and the
// live set the engine must hold (check may draw from the stream's rng; every
// caller must draw the same way to see the same stream). A rejected update
// must have changed nothing: the directory's count is compared with the
// expected population, and the index's structure validated, before each
// check. admitted, when
// not nil, is told before each check which records the step must have
// applied, in stream order, and whether they arrived as a tick at now.
func differentialStream(t *testing.T, s *Server,
	check func(step string, now motion.Tick, live map[motion.ObjectID]motion.State, rng *rand.Rand),
	admitted func(now motion.Tick, tick bool, recs []motion.Update)) {
	t.Helper()
	if admitted == nil {
		admitted = func(motion.Tick, bool, []motion.Update) {}
	}
	rng := rand.New(rand.NewSource(99))
	live := map[motion.ObjectID]motion.State{}
	next := motion.ObjectID(1)
	now := motion.Tick(0)
	fresh := func() motion.State {
		st := motion.State{
			ID:  next,
			Pos: geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Vel: geom.Vec{X: (rng.Float64() - 0.5) * 16, Y: (rng.Float64() - 0.5) * 16},
			Ref: now,
		}
		next++
		return st
	}
	anyLive := func() motion.State {
		ids := make([]motion.ObjectID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids) // map order is random
		return live[ids[rng.Intn(len(ids))]]
	}
	// bad returns an update the engine must reject.
	bad := func() motion.Update {
		cur := anyLive()
		switch rng.Intn(3) {
		case 0:
			return motion.NewInsert(cur) // duplicate
		case 1:
			cur.Vel.X += 1
			return motion.NewDelete(cur, now) // mismatch
		default:
			return motion.NewDelete(motion.State{ID: next + 1000}, now) // unknown
		}
	}
	// applyBatch is one of bench/'s /v1/apply requests: the insert of a
	// fresh object at the clock and, once more than eight are in flight, the
	// delete of the one inserted eight applies earlier — of its current
	// movement, unless a tick has deleted it since.
	var inFlight []motion.ObjectID
	applyBatch := func() []motion.Update {
		st := fresh()
		batch := []motion.Update{motion.NewInsert(st)}
		live[st.ID] = st
		inFlight = append(inFlight, st.ID)
		if len(inFlight) > 8 {
			if cur, ok := live[inFlight[0]]; ok {
				batch = append(batch, motion.NewDelete(cur, now))
				delete(live, cur.ID)
			}
			inFlight = inFlight[1:]
		}
		return batch
	}
	checked := func(step string) {
		t.Helper()
		if s.NumObjects() != len(live) {
			t.Fatalf("%s: NumObjects %d, want %d", step, s.NumObjects(), len(live))
		}
		if err := s.index.Validate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step, now, live, rng)
	}

	var load []motion.State
	for i := 0; i < 200; i++ {
		st := fresh()
		load = append(load, st)
		live[st.ID] = st
	}
	if err := s.Load(load); err != nil {
		t.Fatal(err)
	}
	loaded := make([]motion.Update, len(load))
	for i, st := range load {
		loaded[i] = motion.NewInsert(st)
	}
	admitted(now, false, loaded)
	checked("load")
	for step := 0; step < 40; step++ {
		switch rng.Intn(4) {
		case 0: // a tick of movement updates with a bad record in the middle
			now++
			var ups []motion.Update
			for i := 0; i < 10; i++ {
				cur := anyLive()
				nst := fresh()
				nst.ID = cur.ID
				ups = append(ups, motion.NewDelete(cur, now), motion.NewInsert(nst))
				live[cur.ID] = nst
			}
			valid := len(ups)
			ups = append(ups, bad())
			// Everything after the bad record must be ignored.
			ups = append(ups, motion.NewInsert(fresh()))
			if err := s.Tick(now, ups); err == nil {
				t.Fatalf("step %d: tick with a bad record succeeded", step)
			}
			admitted(now, true, ups[:valid])
		case 1: // a clean tick
			now++
			var ups []motion.Update
			for i := 0; i < 5; i++ {
				st := fresh()
				ups = append(ups, motion.NewInsert(st))
				live[st.ID] = st
			}
			cur := anyLive()
			ups = append(ups, motion.NewDelete(cur, now))
			delete(live, cur.ID)
			if err := s.Tick(now, ups); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			admitted(now, true, ups)
		case 2: // between-tick applies shaped like bench/'s writer
			for b := 1; b <= 3; b++ {
				batch := applyBatch()
				if err := s.ApplyBatch(batch); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				admitted(now, false, batch)
				if b < 3 { // the last batch is checked with the step
					checked(fmt.Sprintf("step %d batch %d", step, b))
				}
			}
		default: // a bad apply
			if err := s.Apply(bad()); err == nil {
				t.Fatalf("step %d: bad apply succeeded", step)
			}
		}
		checked(fmt.Sprintf("step %d", step))
	}
}

// TestDifferentialStream pins the engine to the independent oracle: after
// every step of differentialStream, FR must equal BruteForce (a global sweep
// that touches neither the histograms nor the indexes).
func TestDifferentialStream(t *testing.T) {
	// The case keeps the subtest name it had when the engine could be split
	// into partitions; there is one engine now.
	t.Run("shards=1", func(t *testing.T) {
		s, err := NewServer(streamConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		differentialStream(t, s, func(step string, now motion.Tick, _ map[motion.ObjectID]motion.State, rng *rand.Rand) {
			q := Query{Rho: 0.0002, L: 100, At: now + motion.Tick(rng.Intn(30))}
			fr, err := s.Snapshot(q, FR)
			if err != nil {
				t.Fatalf("%s: FR: %v", step, err)
			}
			bf, err := s.Snapshot(q, BruteForce)
			if err != nil {
				t.Fatalf("%s: BF: %v", step, err)
			}
			if !samePointSet(fr.Region, bf.Region) {
				t.Fatalf("%s: FR differs from BruteForce at t=%d", step, q.At)
			}
		}, nil)
	})
}

// TestReReportStream drives a road-network stream (n = 2,000, so the index
// has internal levels) through 30 ticks, each of ~56 re-reports enacted as
// one index descent and one histogram pass: after every tick the index must
// be structurally valid and FR must equal BruteForce. Both ways a re-report
// can go — rewritten in its leaf, or deleted and re-inserted — must occur.
func TestReReportStream(t *testing.T) {
	const n = 2000
	cfg := testConfig()
	cfg.DisablePA = true
	s, g := loadServer(t, cfg, n, 5)
	if h := s.index.Height(); h < 2 {
		t.Fatalf("index height %d, want internal levels", h)
	}
	var reReports, inPlace int
	for tick := 0; tick < 30; tick++ {
		ups := g.Advance()
		tr := telemetry.NewTrace("tick")
		if err := s.TickTraced(g.Now(), ups, tr.Root()); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		tr.End()
		apply := tr.Root().Children[1]
		r, _ := strconv.Atoi(attrOf(apply, "re_reports"))
		p, _ := strconv.Atoi(attrOf(apply, "in_place"))
		reReports += r
		inPlace += p
		if err := s.index.Validate(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		q := Query{Rho: relRho(n, 3), L: 60, At: g.Now() + motion.Tick(tick%10)}
		fr, err := s.Snapshot(q, FR)
		if err != nil {
			t.Fatalf("tick %d: FR: %v", tick, err)
		}
		bf, err := s.Snapshot(q, BruteForce)
		if err != nil {
			t.Fatalf("tick %d: BF: %v", tick, err)
		}
		if !samePointSet(fr.Region, bf.Region) {
			t.Fatalf("tick %d: FR differs from BruteForce at t=%d", tick, q.At)
		}
	}
	t.Logf("%d of %d re-reports rewritten in place", inPlace, reReports)
	if inPlace == 0 || inPlace == reReports {
		t.Fatalf("%d of %d re-reports rewritten in place, want some of each way", inPlace, reReports)
	}
}

// perCellFR answers an FR snapshot the way the paper states it and the way
// bench/layers' shadow builds it, from standalone layers holding exactly the
// live set: filter, then per candidate cell (in Candidates order) an index
// search of the cell's own grown window and a sweep of that cell alone, then
// one union. It is the decomposition the engine's row runs must reproduce.
func perCellFR(t *testing.T, cfg Config, now motion.Tick, live map[motion.ObjectID]motion.State, q Query) geom.Region {
	t.Helper()
	horizon := cfg.U + cfg.W
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: cfg.HistM, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := tprtree.New(tprtree.Config{Pool: storage.NewPool(0), Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	hist.Advance(now)
	tree.SetNow(now)
	for _, st := range live { // any order: counters add, the sweep sorts
		hist.Insert(st)
		tree.Insert(st)
	}
	fr, err := hist.Filter(q.At, q.Rho, q.L)
	if err != nil {
		t.Fatal(err)
	}
	region := fr.AcceptedRegion()
	for _, cand := range fr.Candidates() {
		cell := hist.CellRect(cand.I, cand.J)
		var points []geom.Point
		tree.Search(cell.Grow(q.L/2), q.At, func(st motion.State) bool {
			if p := st.PositionAt(q.At); cfg.Area.Contains(p) {
				points = append(points, p)
			}
			return true
		})
		region = append(region, sweep.DenseRects(points, cell, q.Rho, q.L)...)
	}
	return geom.CoalesceInPlace(region)
}

// TestFRMatchesPerCellPipeline is the tier-1 twin of the benchmark's traced
// shadow check: after every step of differentialStream the engine's FR
// answer must be the per-cell pipeline's answer float bit for float bit, at
// every worker count. FR == BruteForce (above) allows any
// decomposition of the right point set; this allows one.
func TestFRMatchesPerCellPipeline(t *testing.T) {
	for _, workers := range []int{1, 2, 17} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := streamConfig(workers)
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			differentialStream(t, s, func(step string, now motion.Tick, live map[motion.ObjectID]motion.State, rng *rand.Rand) {
				q := Query{Rho: 0.0001 * float64(1+rng.Intn(3)), L: 100, At: now + motion.Tick(rng.Intn(30))}
				fr, err := s.Snapshot(q, FR)
				if err != nil {
					t.Fatalf("%s: FR: %v", step, err)
				}
				want := perCellFR(t, cfg, now, live, q)
				if len(want) == 0 || fr.Candidates == 0 {
					t.Fatalf("%s: %d rectangles from %d candidates: the query pins nothing", step, len(want), fr.Candidates)
				}
				if !sameBits(fr.Region, want) {
					t.Fatalf("%s: FR answer at t=%d is not the per-cell pipeline's:\n got  %d rects %v\n want %d rects %v",
						step, q.At, len(fr.Region), fr.Region, len(want), want)
				}
			}, nil)
		})
	}
}

// sameBits reports whether two regions hold the same rectangles, in order,
// float bit for float bit.
func sameBits(a, b geom.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for _, v := range [4][2]float64{{a[i].MinX, b[i].MinX}, {a[i].MinY, b[i].MinY}, {a[i].MaxX, b[i].MaxX}, {a[i].MaxY, b[i].MaxY}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				return false
			}
		}
	}
	return true
}

// TestSurfaceMatchesPerRecordFeed is the tier-1 twin of the benchmark's
// traced PA shadow: after every step of differentialStream — the load, clean
// ticks, the tick a bad record truncates, between-tick applies — the
// engine's surface, maintained slot-parallel inside the write fan-out, must
// equal a standalone pa.Surface fed the admitted records one at a time, float
// bit for float bit, at every worker count: the density on a
// fixed lattice for every maintained timestamp, and the dense region for a
// quarter of them that rotates with the step (branch-and-bound is the slow
// part of this test), all of them after the load.
func TestSurfaceMatchesPerRecordFeed(t *testing.T) {
	for _, workers := range []int{1, 2, 17} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := streamConfig(workers)
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			horizon := cfg.U + cfg.W
			want, err := pa.New(pa.Config{Area: cfg.Area, G: cfg.PAGrid, Degree: cfg.PADegree, Horizon: horizon, L: cfg.L, MD: cfg.PAMD})
			if err != nil {
				t.Fatal(err)
			}
			steps := motion.Tick(0)
			differentialStream(t, s, func(step string, now motion.Tick, _ map[motion.ObjectID]motion.State, _ *rand.Rand) {
				got := s.Surface()
				dense := 0
				steps++
				for qt := now; qt <= now+horizon; qt++ {
					for y := 12.5; y < 1000; y += 62.5 {
						for x := 12.5; x < 1000; x += 62.5 {
							p := geom.Point{X: x, Y: y}
							if g, w := got.Density(qt, p), want.Density(qt, p); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s: density at t=%d %v = %g, the per-record feed has %g", step, qt, p, g, w)
							}
						}
					}
					if steps > 1 && (qt+steps)%4 != 0 {
						continue
					}
					g, err := got.DenseRegion(qt, 0.0004)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					w, err := want.DenseRegion(qt, 0.0004)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if !sameBits(g, w) {
						t.Fatalf("%s: PA region at t=%d is not the per-record feed's:\n got  %d rects %v\n want %d rects %v",
							step, qt, len(g), g, len(w), w)
					}
					dense += len(w)
				}
				if dense == 0 {
					t.Fatalf("%s: no timestamp has a dense rectangle: the query pins nothing", step)
				}
			}, func(now motion.Tick, tick bool, recs []motion.Update) {
				if tick {
					want.Advance(now)
				}
				for _, u := range recs {
					want.Apply(u)
				}
			})
		})
	}
}

// TestBadDeleteMidTick is the regression for the ghost-object bug: a delete
// naming the wrong velocity in the middle of a tick must be rejected without
// touching the directory or the structures, so the correct delete and a
// re-insert still succeed afterwards.
func TestBadDeleteMidTick(t *testing.T) {
	// The case keeps the subtest name it had when the engine could be split
	// into partitions; there is one engine now.
	t.Run("shards=1", func(t *testing.T) {
		s, err := NewServer(streamConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		// A fast diagonal mover.
		obj := motion.State{ID: 7, Pos: geom.Point{X: 480, Y: 480}, Vel: geom.Vec{X: 6, Y: 6}}
		other := motion.State{ID: 8, Pos: geom.Point{X: 100, Y: 900}}
		if err := s.Load([]motion.State{obj, other}); err != nil {
			t.Fatal(err)
		}
		wrong := obj
		wrong.Vel.X = -6
		late := motion.State{ID: 9, Pos: geom.Point{X: 700, Y: 200}, Ref: 1}
		err = s.Tick(1, []motion.Update{
			motion.NewDelete(other, 1),
			motion.NewDelete(wrong, 1),
			motion.NewInsert(late),
		})
		if err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("tick with a mismatched delete: err = %v", err)
		}
		// The valid prefix landed, the bad delete and the rest did not.
		if got := s.NumObjects(); got != 1 {
			t.Fatalf("NumObjects = %d after the partial tick, want 1", got)
		}
		agree := func(step string) {
			t.Helper()
			q := Query{Rho: 0.00005, L: 100, At: s.Now()}
			fr, err := s.Snapshot(q, FR)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := s.Snapshot(q, BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			if bf.ObjectsRetrieved != s.NumObjects() {
				t.Fatalf("%s: BruteForce sees %d objects, NumObjects %d", step, bf.ObjectsRetrieved, s.NumObjects())
			}
			if !samePointSet(fr.Region, bf.Region) {
				t.Fatalf("%s: FR differs from BruteForce", step)
			}
		}
		agree("after the bad tick")
		if err := s.Apply(motion.NewDelete(obj, 1)); err != nil {
			t.Fatalf("correct delete after the bad one: %v", err)
		}
		agree("after the correct delete")
		moved := obj
		moved.Pos, moved.Ref = geom.Point{X: 486, Y: 486}, 1
		if err := s.Tick(2, []motion.Update{motion.NewInsert(moved)}); err != nil {
			t.Fatalf("re-insert: %v", err)
		}
		agree("after the re-insert")
	})
}

// referenceDenseRegion is the PA extraction as it stood before the surface's
// bounds table (internal/pa keeps the same recursion as its own reference):
// per polynomial cell, halve the normalized square by midpoints, ask the
// series for Bounds of each box and, at the MD floor, for Eval of its centre.
func referenceDenseRegion(surf *pa.Surface, cfg Config, qt motion.Tick, rho float64) geom.Region {
	floor := 2 * float64(cfg.PAGrid) / float64(cfg.PAMD)
	var out geom.Region
	var branch func(series *cheb.Series2D, cell geom.Rect, x1, y1, x2, y2 float64)
	branch = func(series *cheb.Series2D, cell geom.Rect, x1, y1, x2, y2 float64) {
		emit := func() {
			out.Add(geom.NewRect(
				cell.MinX+(x1+1)/2*cell.Width(), cell.MinY+(y1+1)/2*cell.Height(),
				cell.MinX+(x2+1)/2*cell.Width(), cell.MinY+(y2+1)/2*cell.Height()))
		}
		lo, hi := series.Bounds(x1, y1, x2, y2)
		if hi < rho {
			return
		}
		if lo >= rho {
			emit()
			return
		}
		if x2-x1 <= floor && y2-y1 <= floor {
			if series.Eval((x1+x2)/2, (y1+y2)/2) >= rho {
				emit()
			}
			return
		}
		mx, my := (x1+x2)/2, (y1+y2)/2
		branch(series, cell, x1, y1, mx, my)
		branch(series, cell, mx, y1, x2, my)
		branch(series, cell, x1, my, mx, y2)
		branch(series, cell, mx, my, x2, y2)
	}
	for gy := 0; gy < cfg.PAGrid; gy++ {
		for gx := 0; gx < cfg.PAGrid; gx++ {
			series, cell := surf.Cell(qt, gx, gy)
			branch(series, cell, -1, -1, 1, 1)
		}
	}
	return geom.CoalesceInPlace(out)
}

// TestPASnapshotMatchesReferenceWalk: after every step of differentialStream
// the engine's PA answer — the table walk, under the engine's locks, through
// its cache — is the recursion it replaced run over the engine's own
// surface, rectangle for rectangle on float bits: every maintained timestamp after the load, a rotating quarter of them after
// each later step, at a threshold that rotates too. The reference's Bounds
// and the walk's table share one kernel, cheb.Products and BoundsOf, so this
// pins the walk, not the kernel's arithmetic: that rests on internal/cheb's
// TestBoundsFromMatchesBounds, which holds both to the pre-split BoundsFrom.
func TestPASnapshotMatchesReferenceWalk(t *testing.T) {
	// The case keeps the subtest name it had when the engine could be split
	// into partitions; there is one engine now.
	t.Run("shards=1", func(t *testing.T) {
		cfg := streamConfig(2)
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := motion.Tick(0)
		differentialStream(t, s, func(step string, now motion.Tick, _ map[motion.ObjectID]motion.State, _ *rand.Rand) {
			steps++
			dense := 0
			for qt := now; qt <= now+cfg.U+cfg.W; qt++ {
				if steps > 1 && (qt+steps)%4 != 0 {
					continue
				}
				rho := 0.0001 * float64(1+(qt+steps)%6)
				res, err := s.Snapshot(Query{Rho: rho, L: cfg.L, At: qt}, PA)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				want := referenceDenseRegion(s.Surface(), cfg, qt, rho)
				if !sameBits(res.Region, want) {
					t.Fatalf("%s: PA snapshot at t=%d rho=%g has %d rectangles, the reference walk %d, or others",
						step, qt, rho, len(res.Region), len(want))
				}
				dense += len(want)
			}
			if dense == 0 {
				t.Fatalf("%s: no timestamp has a dense rectangle: the comparison pins nothing", step)
			}
		}, nil)
	})
}
