package tprtree

import (
	"math/rand"
	"runtime"
	"testing"

	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/storage"
)

func benchTree(b *testing.B, n int) (*Tree, []motion.State) {
	b.Helper()
	tr, err := New(Config{Pool: storage.NewPool(0), Horizon: 90})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	states := make([]motion.State, n)
	for i := range states {
		states[i] = randomState(rng, i, 0)
		tr.Insert(states[i])
	}
	return tr, states
}

func BenchmarkInsert(b *testing.B) {
	tr, _ := benchTree(b, 10000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(randomState(rng, 10000+i, 0))
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	tr, _ := benchTree(b, 20000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := geom.Rect{MinX: rng.Float64() * 900, MinY: rng.Float64() * 900}
		r.MaxX = r.MinX + 80
		r.MaxY = r.MinY + 80
		tr.RangeQuery(r, motion.Tick(rng.Intn(90)))
	}
}

func BenchmarkDeleteInsertCycle(b *testing.B) {
	tr, states := benchTree(b, 10000)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(states))
		if !tr.Delete(states[j]) {
			b.Fatalf("delete %d failed", states[j].ID)
		}
		states[j] = randomState(rng, j, 0)
		tr.Insert(states[j])
	}
}

// treeUpdateOp is BenchmarkTreeUpdate's call: one re-report of a
// 20,000-object road-network stream (datagen, seed 1) on a bulk-loaded tree,
// an Update that rewrites the movement in its leaf when the new one fits
// there, as most do, and deletes and re-inserts it otherwise. It reports
// whether the movement stayed in its leaf. Time advances a tick whenever the
// tick's re-reports are used up, and the updates between re-reports are
// applied, with clock stopped.
func treeUpdateOp(tb testing.TB, clock timer) func() (inPlace bool) {
	gcfg := datagen.DefaultConfig(20000)
	gcfg.Seed = 1
	g, err := datagen.New(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := New(Config{Pool: storage.NewPool(0), Horizon: 90}) // U + W of the engine's default config
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(g.InitialStates()); err != nil {
		tb.Fatal(err)
	}
	var ups []motion.Update
	return func() bool {
		// ups holds the rest of the tick: re-reports are a delete and the
		// insert of the same object, back to back.
		for len(ups) < 2 || ups[0].Kind != motion.Delete || ups[1].Kind != motion.Insert || ups[0].State.ID != ups[1].State.ID {
			clock.StopTimer()
			if len(ups) == 0 {
				ups = g.Advance()
				tr.SetNow(g.Now())
			} else {
				if u := ups[0]; u.Kind == motion.Insert {
					tr.Insert(u.State)
				} else if !tr.Delete(u.State) {
					tb.Fatalf("object %d missing", u.State.ID)
				}
				ups = ups[1:]
			}
			clock.StartTimer()
		}
		found, placed := tr.Update(ups[0].State, ups[1].State)
		if !found {
			tb.Fatalf("object %d missing", ups[0].State.ID)
		}
		ups = ups[2:]
		return placed
	}
}

// BenchmarkTreeUpdate times treeUpdateOp; "in-place" is the share of
// re-reports rewritten in their leaf.
func BenchmarkTreeUpdate(b *testing.B) {
	op := treeUpdateOp(b, b)
	inPlace := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op() {
			inPlace++
		}
	}
	b.ReportMetric(float64(inPlace)/float64(b.N), "in-place")
}

// timer is the clock treeUpdateOp stops: the benchmark's, or a mallocClock.
type timer interface {
	StartTimer()
	StopTimer()
}

// mallocClock counts the mallocs made while it runs, as -benchmem counts a
// benchmark's between StartTimer and StopTimer.
type mallocClock struct {
	on             bool
	start, mallocs uint64
}

func (c *mallocClock) StartTimer() {
	if !c.on {
		c.on, c.start = true, readMallocs()
	}
}

func (c *mallocClock) StopTimer() {
	if c.on {
		c.on, c.mallocs = false, c.mallocs+readMallocs()-c.start
	}
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestTreeUpdateAllocs pins BenchmarkTreeUpdate at zero allocations a
// re-report, over 2,000 of them: one rewritten in its leaf allocates nothing,
// and the few deleted and re-inserted average out below one.
func TestTreeUpdateAllocs(t *testing.T) {
	const runs = 2000
	var clock mallocClock
	op := treeUpdateOp(t, &clock)
	op()
	clock.StartTimer()
	for i := 0; i < runs; i++ {
		op()
	}
	clock.StopTimer()
	if n := clock.mallocs / runs; n != 0 {
		t.Errorf("BenchmarkTreeUpdate: %d allocs/op, want 0", n)
	}
}
