package plan

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	odd := []float64{5, 1, 4, 2, 3}
	if got := Median(odd); got != 3 {
		t.Errorf("Median(odd) = %g, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(even) = %g, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %g, want 0", got)
	}
	if !reflect.DeepEqual(odd, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("Median reordered its input: %v", odd)
	}
	ten := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{90, 90}, {91, 100}, {50, 50}, {1, 10}, {100, 100}} {
		if got := Percentile(ten, c.p); got != c.want {
			t.Errorf("Percentile(ten, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// 42 samples: the 90th percentile is the 38th, four samples below the top.
	var many []float64
	for i := 1; i <= 42; i++ {
		many = append(many, float64(i))
	}
	if got := Percentile(many, 90); got != 38 {
		t.Errorf("Percentile(1..42, 90) = %g, want 38", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := Spread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 11, 12, 14], n=4) == [10.25, 11.5, 13.5]
	if got, want := Spread([]float64{14, 10, 12, 11}), (13.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread(4 values) = %g, want %g", got, want)
	}
	if got := Spread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("Spread of three values = %g, want 0 (too few to say)", got)
	}
}

// The quiet statistics are nearest-rank deciles on the good side: of up to
// ten windows the best, of twenty the second best, and a run disturbed for
// most of its length does not move them.
func TestQuietStatistics(t *testing.T) {
	eight := []float64{44, 40, 41, 60, 75, 42, 58, 43}
	if got := QuietLow(eight); got != 40 {
		t.Errorf("QuietLow(8 windows) = %g, want 40", got)
	}
	twenty := append(append([]float64{39.5}, eight...), 50, 51, 52, 53, 54, 55, 56, 57, 59, 61, 62)
	if got := QuietLow(twenty); got != 40 {
		t.Errorf("QuietLow(20 windows) = %g, want 40, the second best", got)
	}
	if got := QuietHigh([]float64{20, 25, 24, 12, 15, 23, 22, 21}); got != 25 {
		t.Errorf("QuietHigh(8 windows) = %g, want 25", got)
	}
	if got := QuietHigh([]float64{20, 25, 24, 12, 15, 23, 22, 21, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13}); got != 24 {
		t.Errorf("QuietHigh(20 windows) = %g, want 24, the second best", got)
	}
	if QuietLow([]float64{7}) != 7 || QuietHigh([]float64{7}) != 7 || QuietLow(nil) != 0 || QuietHigh(nil) != 0 {
		t.Error("one window is its own decile, none give 0")
	}
	quiet := []float64{40, 41, 39, 40, 42, 41, 40, 39, 41, 40, 42, 40, 41, 39, 40, 42, 41, 40, 39, 41}
	disturbed := append([]float64(nil), quiet...)
	for i := 3; i < len(disturbed); i++ {
		disturbed[i] *= 1.6 // all but three windows at 1.6x
	}
	if a, b := QuietLow(quiet), QuietLow(disturbed); b > a*1.03 {
		t.Errorf("QuietLow moved from %g to %g under a disturbance of 17 windows in 20", a, b)
	}
	if a, b := Median(quiet), Median(disturbed); b < a*1.5 {
		t.Errorf("the median should follow the disturbance: %g -> %g", a, b)
	}
}

const stream = `{"kind":"state","tick":0,"id":1,"x":10,"y":10,"vx":1}
{"kind":"state","tick":0,"id":2,"x":20,"y":20}
{"kind":"tick","tick":1}
{"kind":"delete","tick":1,"id":2,"x":20,"y":20}
{"kind":"insert","tick":1,"id":2,"x":21,"y":20,"ref":1}
{"kind":"tick","tick":2}
{"kind":"delete","tick":2,"id":1,"x":10,"y":10,"vx":1}
{"kind":"insert","tick":2,"id":1,"x":12,"y":10,"vy":1,"ref":2}
{"kind":"tick","tick":3}
`

func TestSplitAtTickLines(t *testing.T) {
	ds, err := Split([]byte(stream), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(strings.SplitAfter(stream, "\n")[:5], ""); string(ds.Preload) != want {
		t.Errorf("preload = %q, want the first five lines", ds.Preload)
	}
	if ds.WarmNow != 1 {
		t.Errorf("WarmNow = %d, want 1", ds.WarmNow)
	}
	if len(ds.Ticks) != 2 || ds.Ticks[0].Now != 2 || len(ds.Ticks[0].Lines) != 2 || ds.Ticks[1].Now != 3 || len(ds.Ticks[1].Lines) != 0 {
		t.Fatalf("ticks = %+v, want tick 2 with two updates and an empty tick 3", ds.Ticks)
	}
	var body struct {
		Now     int64    `json:"now"`
		Updates []Record `json:"updates"`
	}
	if err := json.Unmarshal(ds.Ticks[0].Body(), &body); err != nil {
		t.Fatalf("tick body is not JSON: %v", err)
	}
	if body.Now != 2 || len(body.Updates) != 2 || body.Updates[1].Kind != KindInsert || body.Updates[1].VY != 1 {
		t.Errorf("tick body = %+v", body)
	}
	if err := json.Unmarshal(ds.Ticks[1].Body(), &body); err != nil || len(body.Updates) != 0 {
		t.Errorf("empty tick body: %v, %+v", err, body)
	}

	all, err := Split([]byte(stream), 3)
	if err != nil || len(all.Ticks) != 0 || string(all.Preload) != stream || all.WarmNow != 3 {
		t.Errorf("Split(warm=3) = %+v, %v: want everything in the preload", all, err)
	}
	if _, err := Split([]byte(stream), 4); err == nil {
		t.Error("Split(warm=4) of a three-tick stream did not fail")
	}
}

func TestWorldFollowsTheStream(t *testing.T) {
	ds, err := Split([]byte(stream), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld()
	if err := w.ApplyLines(ds.Preload); err != nil {
		t.Fatal(err)
	}
	if w.Now != 1 || len(w.Live) != 2 || w.Live[2].X != 21 {
		t.Fatalf("after the preload: now %d, live %+v", w.Now, w.Live)
	}
	if err := w.ApplyTick(ds.Ticks[0]); err != nil {
		t.Fatal(err)
	}
	// Object 1 now moves up from (12,10) since tick 2; object 2 stands at (21,20).
	if got, want := w.PositionsAt(5), []Point{{12, 13}, {21, 20}}; !reflect.DeepEqual(got, want) {
		t.Errorf("PositionsAt(5) = %v, want %v", got, want)
	}
	if err := w.Apply(Record{Kind: KindInsert, ID: 1}); err == nil {
		t.Error("insert of a live object did not fail")
	}
	if err := w.Apply(Record{Kind: KindDelete, ID: 9}); err == nil {
		t.Error("delete of an unknown object did not fail")
	}
	// An object extrapolated out of the plane does not exist at that time.
	w.Live[3] = Record{ID: 3, X: 999, Y: 5, VX: 1}
	if got := len(w.PositionsAt(0)); got != 3 {
		t.Errorf("%d positions at t=0, want 3", got)
	}
	if got := len(w.PositionsAt(1)); got != 2 {
		t.Errorf("%d positions at t=1, want 2: x=1000 is outside the half-open plane", got)
	}
}

func TestOpListsAreSeeded(t *testing.T) {
	for _, w := range Workloads {
		if w.Readers == 0 {
			continue
		}
		a, b := w.ReaderCycle(1, 0, 3), w.ReaderCycle(1, 0, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different cycles", w.Name)
		}
		if reflect.DeepEqual(a, w.ReaderCycle(2, 0, 3)) {
			t.Errorf("%s: seeds 1 and 2 gave the same cycle", w.Name)
		}
		if reflect.DeepEqual(a, w.ReaderCycle(1, 0, 4)) {
			t.Errorf("%s: cycles 3 and 4 are the same", w.Name)
		}
		// Every cycle has the same class and parameter counts, so a run
		// that stops after any whole cycle has the same mix.
		count := func(ops []Op) map[string]int {
			m := map[string]int{}
			for _, o := range ops {
				m[o.Class+"/"+Op{L: o.L, Varrho: o.Varrho, Method: o.Method}.Query(1, -1)]++
				if o.AtOff < 0 || o.AtOff >= maxAtOff {
					t.Errorf("%s: at offset %d outside [0, %d)", w.Name, o.AtOff, maxAtOff)
				}
			}
			return m
		}
		// Every cycle looks ahead evenly: one snapshot per stratum of the
		// prediction window.
		var at []int
		for _, o := range a {
			if o.Span == 0 {
				at = append(at, o.AtOff)
			}
		}
		sort.Ints(at)
		for k, off := range at {
			if lo, hi := k*maxAtOff/len(at), (k+1)*maxAtOff/len(at); off < lo || off > hi {
				t.Errorf("%s: the %d-th earliest of %d snapshots looks %d ticks ahead, outside its stratum [%d, %d]", w.Name, k, len(at), off, lo, hi)
			}
		}
		if !reflect.DeepEqual(count(a), count(w.ReaderCycle(7, 1, 9))) {
			t.Errorf("%s: two cycles differ in their class mix", w.Name)
		}
		if a[len(a)-1].Class != w.Secondary && w.Secondary != ClassApply {
			t.Errorf("%s: cycle ends with %s, want the %s", w.Name, a[len(a)-1].Class, w.Secondary)
		}
	}
	if !reflect.DeepEqual(Checks(1, "fr"), Checks(1, "fr")) || reflect.DeepEqual(Checks(1, "fr"), Checks(2, "fr")) {
		t.Error("check queries are not a function of the seed alone")
	}
	classes := map[[2]float64]bool{}
	for _, op := range Checks(1, "fr") {
		classes[[2]float64{op.L, op.Varrho}] = true
	}
	if len(classes) != FRChecks {
		t.Errorf("%d distinct classes in the FR checks, want %d", len(classes), FRChecks)
	}
	// The PA checks take, for every threshold, one timestamp from each
	// stratum of the prediction window, whatever the seed.
	for seed := int64(1); seed <= 3; seed++ {
		pa := Checks(seed, "pa")
		if len(pa) != PAChecks {
			t.Fatalf("%d PA checks, want %d", len(pa), PAChecks)
		}
		strata := PAChecks / len(paVarrhos)
		seen := map[[2]int]bool{}
		for _, op := range pa {
			seen[[2]int{int(op.Varrho), op.AtOff * strata / maxAtOff}] = true
		}
		if len(seen) != PAChecks {
			t.Errorf("seed %d: the PA checks cover %d of %d (threshold, stratum) pairs", seed, len(seen), PAChecks)
		}
	}
	if a, b := FreshObject(1, 5), FreshObject(1, 5); a != b || a == FreshObject(1, 6) || a.ID != FreshIDBase+5 {
		t.Errorf("fresh objects: %+v, %+v", a, b)
	}
}

func TestQueryString(t *testing.T) {
	op := Op{Method: "fr", L: 60, Varrho: 3, AtOff: 7, Span: 2}
	if got, want := op.Query(20000, -1), "at=now%2B7&l=60&method=fr&rho=0.06&until=now%2B9"; got != want {
		t.Errorf("relative query = %q, want %q", got, want)
	}
	op.Span = 0
	if got, want := op.Query(20000, 20), "at=27&l=60&method=fr&rho=0.06"; got != want {
		t.Errorf("absolute query = %q, want %q", got, want)
	}
}

// Three objects and l=4: the neighbourhood of p is (p.x-2, p.x+2] x (p.y-2,
// p.y+2], open on the left and bottom, closed on the right and top.
func TestOracleCountsTheHalfOpenSquare(t *testing.T) {
	objects := []Point{{10, 10}, {12, 10}, {10, 12}}
	const l = 4.0
	two, three := 2.0/(l*l), 3.0/(l*l) // thresholds of exactly 2 and 3 objects
	if Threshold(two, l) != 2 || Threshold(three, l) != 3 || Threshold(three+1e-9, l) != 4 {
		t.Fatalf("thresholds: %d %d %d", Threshold(two, l), Threshold(three, l), Threshold(three+1e-9, l))
	}
	for _, c := range []struct {
		p     Point
		count int
	}{
		{Point{11, 11}, 3},  // (9,13] x (9,13] holds all three
		{Point{12, 11}, 1},  // x in (10,14]: the left edge is open, x=10 is out
		{Point{8, 10}, 2},   // x in (6,10]: the right edge is closed, x=10 is in
		{Point{10, 8}, 2},   // y in (6,10]: (10,10) and (12,10)
		{Point{10, 7.9}, 0}, // y in (5.9,9.9]: nothing
		{Point{14, 12}, 0},  // x in (12,16]: x=12 sits on the open edge
	} {
		want2, want3 := c.count >= 2, c.count >= 3
		if got := Dense(objects, c.p, two, l); got != want2 {
			t.Errorf("Dense(%v, threshold 2) = %v, want %v", c.p, got, want2)
		}
		if got := Dense(objects, c.p, three, l); got != want3 {
			t.Errorf("Dense(%v, threshold 3) = %v, want %v", c.p, got, want3)
		}
	}
	if !Dense(nil, Point{1, 1}, 0, l) {
		t.Error("a zero threshold must make every point dense")
	}

	// The grid counts what Dense counts: on the hand-built case, and at
	// seeded points over seeded objects, cell borders and plane edges included.
	rng := rngFor(1, "grid", 0, 0)
	var many []Point
	for i := 0; i < 3000; i++ {
		many = append(many, Point{math.Floor(rng.Float64()*AreaEdge*2) / 2, rng.Float64() * AreaEdge})
	}
	for _, gl := range []float64{l, 30, 45, 60} {
		objs, rho := many, 4/(gl*gl)
		if gl == l {
			objs, rho = objects, two
		}
		grid := NewGrid(objs, gl)
		for i := 0; i < 4000; i++ {
			p := Point{math.Floor(rng.Float64()*(AreaEdge+gl)*2)/2 - gl/2, rng.Float64()*(AreaEdge+gl) - gl/2}
			if i < 40 {
				p = Point{float64(i%8) + 7, float64(i/8) + 7}
			}
			if got, want := grid.Dense(p, rho), Dense(objs, p, rho, gl); got != want {
				t.Fatalf("l=%g: Grid.Dense(%v) = %v, Dense = %v", gl, p, got, want)
			}
		}
	}

	rects := []Rect{{MinX: 8, MinY: 8, MaxX: 12, MaxY: 12}}
	for _, c := range []struct {
		p    Point
		want bool
	}{{Point{8, 8}, true}, {Point{12, 10}, false}, {Point{10, 12}, false}, {Point{11.999, 11.999}, true}, {Point{7.999, 10}, false}} {
		if got := Covered(rects, c.p); got != c.want {
			t.Errorf("Covered(%v) = %v, want %v", c.p, got, c.want)
		}
	}

	// (11,11), (8,10) and (10,8) are dense at threshold 2 and covered;
	// (12,11) is neither dense nor covered (x=12 is the rectangle's open
	// edge); (9,9) sees only (10,10) but is covered: a false positive; the
	// point outside the plane is skipped.
	samples := []Point{{11, 11}, {8, 10}, {12, 11}, {9, 9}, {10, 8}, {-1, 5}}
	v := CheckAnswer(objects, rects, samples, two, l)
	if want := (Verdict{Points: 5, TrulyDense: 3, FalsePositive: 1}); v != want {
		t.Errorf("CheckAnswer = %+v, want %+v", v, want)
	}
	v = CheckAnswer(objects, nil, samples, two, l)
	if want := (Verdict{Points: 5, TrulyDense: 3, FalseNegative: 3}); v != want || v.Mismatch() != 3 {
		t.Errorf("CheckAnswer(no rects) = %+v, want %+v", v, want)
	}
}

func TestSamplePointsAreSeeded(t *testing.T) {
	objects := []Point{{100, 100}, {900, 900}}
	a := CheckPoints(1, 0, objects, 30)
	if len(a) != CheckSamples || !reflect.DeepEqual(a, CheckPoints(1, 0, objects, 30)) {
		t.Error("sample points are not reproducible")
	}
	if reflect.DeepEqual(a, CheckPoints(1, 1, objects, 30)) || reflect.DeepEqual(a, CheckPoints(2, 0, objects, 30)) {
		t.Error("sample points ignore the query index or the seed")
	}
	near := 0
	for _, p := range a {
		for _, o := range objects {
			if math.Abs(p.X-o.X) <= 30 && math.Abs(p.Y-o.Y) <= 30 {
				near++
				break
			}
		}
	}
	if near < CheckSamples/2 {
		t.Errorf("%d of %d points lie near an object, want at least half", near, CheckSamples)
	}
}
