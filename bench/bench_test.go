package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pdr/bench/plan"
)

func metric(better string, bound float64, values ...float64) *resultMetric {
	return &resultMetric{Value: plan.Median(values), Values: values, Better: better, Bound: bound, Unit: "ms"}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 70, 100, 125}
	for _, c := range []struct {
		name  string
		a, b  *resultMetric
		want  string
		worse float64
	}{
		{"lower is better, 5% slower, bound 10%", metric("lower", 0.10, 100), metric("lower", 0.10, 105), verdictOK, 0.05},
		{"lower is better, 12% slower, bound 10%", metric("lower", 0.10, 100), metric("lower", 0.10, 112), verdictRegressed, 0.12},
		{"lower is better, faster", metric("lower", 0.10, 100), metric("lower", 0.10, 50), verdictOK, -0.5},
		{"higher is better, 20% less, bound 10%", metric("higher", 0.10, 50), metric("higher", 0.10, 40), verdictRegressed, 0.2},
		{"higher is better, more", metric("higher", 0.10, 50), metric("higher", 0.10, 60), verdictOK, -0.2},
		{"steady runs within the bound", metric("lower", 0.10, steady...), metric("lower", 0.10, steady...), verdictOK, 0},
		{"spread wider than the bound", metric("lower", 0.10, noisy...), metric("lower", 0.10, steady...), verdictUnresolved, 0},
		{"a regression is a regression even when noisy", metric("lower", 0.10, noisy...), metric("lower", 0.10, 150), verdictRegressed, 0.5},
		{"missing on one side", metric("lower", 0.10, 100), nil, verdictUnresolved, 0},
	} {
		worse, got := verdict(c.a, c.b)
		if got != c.want || worse < c.worse-1e-9 || worse > c.worse+1e-9 {
			t.Errorf("%s: verdict = %s (worse by %.3f), want %s (%.3f)", c.name, got, worse, c.want, c.worse)
		}
	}
}

// Windows are whole groups of one client's consecutive cycles; each gives the
// median of its primary latencies and its own request rate.
func TestPhaseWindows(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	a := []cycle{
		{start: sec(0), end: sec(1), ops: 8, primary: []float64{100, 300}},
		{start: sec(1), end: sec(2), ops: 8, primary: []float64{200, 400}},
		{start: sec(2), end: sec(2.5), ops: 8, primary: []float64{50, 70}},
		{start: sec(2.5), end: sec(4), ops: 8, primary: []float64{60, 80}},
		{start: sec(4), end: sec(5), ops: 8, primary: []float64{1000}}, // incomplete window: dropped
	}
	b := []cycle{{start: sec(0.5), end: sec(1.5), ops: 4, primary: []float64{10}}} // a client's only window is kept
	p := &phase{cycles: [][]cycle{a, b}}
	lat, rate := p.windows(2)
	if want := []float64{250, 65, 10}; !reflect.DeepEqual(lat, want) {
		t.Errorf("window medians = %v, want %v", lat, want)
	}
	if want := []float64{8, 8, 4}; !reflect.DeepEqual(rate, want) {
		t.Errorf("window rates = %v, want %v", rate, want)
	}
	if lat, _ := p.windows(1); len(lat) != 6 {
		t.Errorf("%d windows of one cycle, want 6", len(lat))
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(p50 float64) *result {
		r := &result{Comparable: true, N: defaultN, Seconds: defaultSeconds, Runs: 1, Workloads: map[string]*resultWorkload{}}
		for _, w := range plan.Workloads {
			res := &runResult{Correct: true, Attempted: 10, Metrics: map[string]float64{}, Samples: map[string]int{}}
			for _, d := range endToEnd {
				res.Metrics[d.Name] = 10
			}
			res.Metrics["primary_p50_ms"] = p50
			r.add(w.Name, false, res)
		}
		return r
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(100), mk(105)); code != 0 {
		t.Errorf("5%% slower exits %d, want 0:\n%s", code, out.String())
	}
	if got := strings.Count(out.String(), verdictOK); got != len(plan.Workloads)*len(endToEnd) {
		t.Errorf("%d ok verdicts, want one per workload x metric:\n%s", got, out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(100), mk(130)); code != 1 || strings.Count(out.String(), verdictRegressed) != len(plan.Workloads) {
		t.Errorf("30%% slower exits %d:\n%s", code, out.String())
	}
	quick := mk(100)
	quick.Comparable = false
	if code := compareResults(&out, mk(100), quick); code != 2 {
		t.Errorf("a -quick result compared with exit %d, want 2", code)
	}
	wrong := mk(100)
	wrong.Workloads["exact-read"].Correct = false
	if code := compareResults(&out, mk(100), wrong); code != 1 {
		t.Errorf("a failed check compared with exit %d, want 1", code)
	}
}

func TestResultKeepsEveryRun(t *testing.T) {
	r := newResult(t.TempDir(), 1, defaultData, defaultN, defaultSeconds, 3, true)
	for _, v := range []float64{30, 10, 20} {
		r.add("exact-read", false, &runResult{Correct: true, Attempted: 5, Metrics: map[string]float64{"setup_s": v}, Samples: map[string]int{"setup_s": 3}})
	}
	m := r.Workloads["exact-read"].EndToEnd["setup_s"]
	if m.Value != 20 || len(m.Values) != 3 || m.Samples != 9 || m.Unit != "s" || m.Better != "lower" || m.Bound <= 0 {
		t.Errorf("setup_s = %+v", m)
	}
	if r.Claim != nil || r.Workloads["exact-read"].Attempted != 15 || r.Host.NProc < 1 || r.Host.GoVersion == "" {
		t.Errorf("result = %+v", r)
	}
}

// The catalogue in metrics.go and BENCHMARK.json are two copies of one list.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %g, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(plan.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in plan", len(b.Workloads), len(plan.Workloads))
	}
	for i, w := range plan.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, plan has %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: %+v, the catalogue has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
