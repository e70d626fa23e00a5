package core

import (
	"strconv"
	"strings"
	"testing"

	"pdr/internal/motion"
	"pdr/internal/telemetry"
)

// skeleton renders the span tree's shape — names and nesting, no timings —
// so trees from different runs can be compared for structural equality.
func skeleton(sp *telemetry.Span, depth int, b *strings.Builder) {
	b.WriteString(strings.Repeat(" ", depth))
	b.WriteString(sp.Name)
	b.WriteByte('\n')
	for _, c := range sp.Children {
		skeleton(c, depth+1, b)
	}
}

func treeShape(tr *telemetry.Trace) string {
	var b strings.Builder
	skeleton(tr.Root(), 0, &b)
	return b.String()
}

// TestTracedSnapshotDeterministicTree: the span tree produced by a traced
// snapshot must have the same shape at any worker-pool size — Fork
// pre-allocates child slots in index order, so only timings may differ —
// and the answer must be bit-identical to the untraced run.
func TestTracedSnapshotDeterministicTree(t *testing.T) {
	servers := loadWorkers(t, 2500, 11, 1, 2, 17)
	q := Query{Rho: RelRhoTest(2500, 3), L: 60, At: 10}
	for _, m := range []Method{FR, BruteForce, DHOptimistic, PA} {
		var wantShape string
		var wantRegion *Result
		for i, s := range servers {
			untraced, err := s.Snapshot(q, m)
			if err != nil {
				t.Fatalf("%v untraced: %v", m, err)
			}
			tr := telemetry.NewTrace("test")
			traced, err := s.SnapshotTraced(q, m, tr.Root())
			tr.End()
			if err != nil {
				t.Fatalf("%v traced: %v", m, err)
			}
			if !regionsEqual(traced.Region, untraced.Region) {
				t.Fatalf("%v: traced answer differs from untraced", m)
			}
			shape := treeShape(tr)
			if i == 0 {
				wantShape, wantRegion = shape, traced
				continue
			}
			if shape != wantShape {
				t.Errorf("%v: tree shape differs between worker counts:\n--- workers=1\n%s--- this run\n%s", m, wantShape, shape)
			}
			if !regionsEqual(traced.Region, wantRegion.Region) {
				t.Errorf("%v: answer differs between worker counts", m)
			}
		}
		if strings.Count(wantShape, "\n") < 2 {
			t.Errorf("%v: trace has no engine spans:\n%s", m, wantShape)
		}
	}
}

// TestTracedIntervalDeterministicTree: the interval fan-out forks one child
// slot per snapshot timestamp; the tree shape and the answer must be
// independent of the worker count.
func TestTracedIntervalDeterministicTree(t *testing.T) {
	servers := loadWorkers(t, 2500, 11, 1, 2, 17)
	q := Query{Rho: RelRhoTest(2500, 3), L: 60, At: 5}
	var wantShape string
	var want *Result
	for i, s := range servers {
		untraced, err := s.Interval(q, 12, FR)
		if err != nil {
			t.Fatal(err)
		}
		// The full interval tree (8 snapshots x ~1k windows) exceeds the
		// default span budget; truncation order is timing-dependent by
		// design, so shape comparison needs headroom.
		tr := telemetry.NewTraceWithBudget("test", 1<<20)
		traced, err := s.IntervalTraced(q, 12, FR, tr.Root())
		tr.End()
		if err != nil {
			t.Fatal(err)
		}
		if !regionsEqual(traced.Region, untraced.Region) {
			t.Fatal("traced interval answer differs from untraced")
		}
		shape := treeShape(tr)
		if i == 0 {
			wantShape, want = shape, traced
			continue
		}
		if shape != wantShape {
			t.Errorf("interval tree shape differs between worker counts:\n--- workers=1\n%s--- this run\n%s", wantShape, shape)
		}
		if !regionsEqual(traced.Region, want.Region) {
			t.Errorf("interval answer differs between worker counts")
		}
	}
	// One "snapshot" fork slot per timestamp in [5, 12].
	if got := strings.Count(wantShape, " snapshot\n"); got != 8 {
		t.Errorf("interval trace has %d snapshot slots, want 8:\n%s", got, wantShape)
	}
}

// TestTracedBudgetTruncationKeepsAnswer: even when the span budget
// truncates the tree mid-query, the answer is unchanged — spans are
// observability, never control flow.
func TestTracedBudgetTruncationKeepsAnswer(t *testing.T) {
	servers := loadWorkers(t, 2500, 11, 4)
	s := servers[0]
	q := Query{Rho: RelRhoTest(2500, 3), L: 60, At: 10}
	want, err := s.Snapshot(q, FR)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTraceWithBudget("test", 3) // root + 2 spans only
	got, err := s.SnapshotTraced(q, FR, tr.Root())
	tr.End()
	if err != nil {
		t.Fatal(err)
	}
	if !regionsEqual(got.Region, want.Region) {
		t.Fatal("budget-truncated traced answer differs from untraced")
	}
	if n := tr.Root().CountSpans(); n > 3 {
		t.Fatalf("budget 3 produced %d spans", n)
	}
}

// attrOf returns the span's attribute value for key ("" when absent).
func attrOf(sp *telemetry.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTickTracedSpans: a traced tick records its two phases — the
// sequential plan and the one fan-out — with the counts an operator needs to
// read a slow tick, and a bad record shows up as applied < updates. The tree
// has the same shape at every worker count; the untraced Tick is the nil
// span.
func TestTickTracedSpans(t *testing.T) {
	st := makeStream()
	for _, workers := range []int{1, 2, 17} {
		s, err := NewServer(streamConfig(4, workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(st.load); err != nil {
			t.Fatal(err)
		}
		b := st.ticks[0]
		ups := append(append([]motion.Update(nil), b.updates[:7]...), motion.NewDelete(motion.State{ID: 1 << 40}, b.now)) // unknown
		tr := telemetry.NewTrace("test")
		err = s.TickTraced(b.now, ups, tr.Root())
		tr.End()
		if err == nil {
			t.Fatal("tick deleting an unknown object succeeded")
		}
		if got, want := treeShape(tr), "test\n plan\n apply\n"; got != want {
			t.Fatalf("workers=%d: tick trace shape:\n%s\nwant:\n%s", workers, got, want)
		}
		plan, apply := tr.Root().Children[0], tr.Root().Children[1]
		if u, a := attrOf(plan, "updates"), attrOf(plan, "applied"); u != "8" || a != "7" {
			t.Errorf("workers=%d: plan span updates=%q applied=%q, want 8 and 7", workers, u, a)
		}
		want := map[string]string{"partitions": "4", "slots": "91", "workers": strconv.Itoa(workers)}
		for k, v := range want {
			if got := attrOf(apply, k); got != v {
				t.Errorf("workers=%d: apply span %s=%q, want %q", workers, k, got, v)
			}
		}
		if err := s.Tick(b.now+1, nil); err != nil {
			t.Fatal(err)
		}
	}
}
