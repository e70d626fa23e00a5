package lint

import (
	"go/token"
	"path/filepath"
	"sync"
	"testing"
)

// testModule loads the real module once for every fixture check: fixtures
// impersonate module-local import paths, and their imports (pdr/internal/geom,
// sync, time, ...) resolve through the same loader pdrvet uses.
var testModule = sync.OnceValues(func() (*Module, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// analyze type-checks src as a single-file package under the given import
// path and runs the named analyzers over it (plus ignore handling).
func analyze(t *testing.T, path, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	m, err := testModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	pkg, err := m.CheckSource(path, map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	return Run([]*Package{pkg}, analyzers)
}

// wantFindings asserts the number of diagnostics and that each carries the
// expected analyzer name.
func wantFindings(t *testing.T, diags []Diagnostic, analyzer string, n int) {
	t.Helper()
	if len(diags) != n {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), n, diags)
	}
	for _, d := range diags {
		if d.Analyzer != analyzer {
			t.Errorf("finding %v attributed to %q, want %q", d, d.Analyzer, analyzer)
		}
	}
}

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags exact comparison", "pdr/internal/x", `package x
func f(a, b float64) bool { return a == b }
`, 1},
		{"flags not-equal too", "pdr/internal/x", `package x
func f(a, b float32) bool { return a != b }
`, 1},
		{"constant sentinel allowed", "pdr/internal/x", `package x
func f(a float64) bool { return a == 0 }
`, 0},
		{"integer comparison ignored", "pdr/internal/x", `package x
func f(a, b int) bool { return a == b }
`, 0},
		{"approved epsilon helper exempt", "pdr/internal/geom", `package geom
func ApproxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return false
}
`, 0},
		{"trailing ignore suppresses", "pdr/internal/x", `package x
func f(a, b float64) bool {
	return a == b // lint:ignore floateq test fixture
}
`, 0},
		{"standalone ignore suppresses next line", "pdr/internal/x", `package x
func f(a, b float64) bool {
	// lint:ignore floateq test fixture reason
	// that wraps over two comment lines.
	return a == b
}
`, 0},
		{"ignore for another analyzer does not suppress", "pdr/internal/x", `package x
func f(a, b float64) bool {
	return a == b // lint:ignore wallclock wrong analyzer
}
`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerFloatEq), "floateq", tc.want)
		})
	}
}

func TestHalfOpen(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags Rect literal outside geom", "pdr/internal/x", `package x
import "pdr/internal/geom"
var r = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
`, 1},
		{"constructor allowed", "pdr/internal/x", `package x
import "pdr/internal/geom"
var r = geom.NewRect(0, 0, 1, 1)
`, 0},
		{"inside geom exempt", "pdr/internal/geom", `package geom
type Rect struct{ MinX, MinY, MaxX, MaxY float64 }
var r = Rect{MinX: 0, MaxX: 1}
`, 0},
		{"ignore suppresses", "pdr/internal/x", `package x
import "pdr/internal/geom"
// lint:ignore halfopen test fixture
var r = geom.Rect{MinX: 0, MaxX: 1}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerHalfOpen), "halfopen", tc.want)
		})
	}
}

func TestLocked(t *testing.T) {
	const structDecl = `package x
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
`
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"flags unlocked access", structDecl + `
func (s *S) Bad() int { return s.n }
`, 1},
		{"lock before access allowed", structDecl + `
func (s *S) Good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`, 0},
		{"RLock counts", `package x
import "sync"
type S struct {
	mu sync.RWMutex
	n  int // guarded by mu
}
func (s *S) Good() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}
`, 0},
		{"Locked suffix exempt", structDecl + `
func (s *S) ReadLocked() int { return s.n }
`, 0},
		{"unguarded field ignored", `package x
import "sync"
type S struct {
	mu sync.Mutex
	n  int
}
func (s *S) Free() int { return s.n }
`, 0},
		{"ignore suppresses", structDecl + `
func (s *S) Escape() int {
	return s.n // lint:ignore locked test fixture
}
`, 0},
		// The engine's fan-out shape: take the read lock once, then spawn
		// workers whose closures read guarded state. The analyzer must
		// accept this (accesses inside the goroutine literals are textually
		// after the RLock in the same body).
		{"worker-pool fan-out under read lock allowed", `package x
import "sync"
type S struct {
	mu    sync.RWMutex
	items []int // guarded by mu
}
func (s *S) Sum() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts := make([]int, len(s.items))
	var wg sync.WaitGroup
	for i := range s.items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = s.items[i]
		}(i)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += p
	}
	return total
}
`, 0},
		// The same fan-out with the lock forgotten: the guarded access
		// inside the worker closure must still be flagged.
		{"worker-pool fan-out without lock flagged", `package x
import "sync"
type S struct {
	mu    sync.RWMutex
	items []int // guarded by mu
}
func (s *S) Broken() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.items
		}()
	}
	wg.Wait()
}
`, 1},
		// The result cache's sharded-mutex convention (internal/cache): every
		// shard owns its mu plus "guarded by mu" fields, lookups lock the
		// shard's own mu, and mutation helpers are *Locked methods invoked
		// under it. These fixtures pin that the analyzer holds shard methods
		// to the same discipline as any other receiver.
		{"sharded: shard method locking its own mu allowed", `package x
import "sync"
type shard struct {
	mu      sync.Mutex
	entries map[int]int // guarded by mu
}
func (sh *shard) get(k int) (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.entries[k]
	return v, ok
}
`, 0},
		{"sharded: shard method without lock flagged", `package x
import "sync"
type shard struct {
	mu      sync.Mutex
	entries map[int]int // guarded by mu
}
func (sh *shard) peek(k int) int { return sh.entries[k] }
`, 1},
		{"sharded: shard Locked helper exempt", `package x
import "sync"
type shard struct {
	mu      sync.Mutex
	entries map[int]int // guarded by mu
	bytes   int64       // guarded by mu
}
func (sh *shard) storeLocked(k, v int) {
	sh.entries[k] = v
	sh.bytes += 8
}
`, 0},
		// Accesses through a local shard variable are outside the analyzer's
		// receiver-based scope: the convention compensates by keeping every
		// guarded mutation inside the shard's own methods (checked above), so
		// the outer type only ever locks sh.mu and calls *Locked helpers.
		{"sharded: outer access via local shard out of scope", `package x
import "sync"
type shard struct {
	mu      sync.Mutex
	entries map[int]int // guarded by mu
}
type sharded struct {
	shards [4]*shard
}
func (c *sharded) get(k int) (int, bool) {
	sh := c.shards[k%4]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.entries[k]
	return v, ok
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerLocked), "locked", tc.want)
		})
	}
}

func TestWallClock(t *testing.T) {
	const clockSrc = `package core
import "time"
func f() time.Time { return time.Now() }
`
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags time.Now in core", "pdr/internal/core", clockSrc, 1},
		{"flags time.Since in an index", "pdr/internal/tprtree", `package tprtree
import "time"
func f(t0 time.Time) time.Duration { return time.Since(t0) }
`, 1},
		{"unrestricted package allowed", "pdr/internal/x", clockSrc, 0},
		{"duration arithmetic allowed", "pdr/internal/core", `package core
import "time"
func f(d time.Duration) time.Duration { return 2 * d }
`, 0},
		{"ignore suppresses", "pdr/internal/core", `package core
import "time"
func f() time.Time {
	return time.Now() // lint:ignore wallclock test fixture
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerWallClock), "wallclock", tc.want)
		})
	}
}

func TestRandSeed(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"flags global draw", `package x
import "math/rand"
func f() int { return rand.Int() }
`, 1},
		{"seeded generator allowed", `package x
import "math/rand"
func f() *rand.Rand { return rand.New(rand.NewSource(1)) }
`, 0},
		{"type reference allowed", `package x
import "math/rand"
func f(r *rand.Rand) float64 { return r.Float64() }
`, 0},
		{"ignore suppresses", `package x
import "math/rand"
func f() int {
	return rand.Int() // lint:ignore randseed test fixture
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, "pdr/internal/x", tc.src, AnalyzerRandSeed), "randseed", tc.want)
		})
	}
}

func TestErrCheckLite(t *testing.T) {
	const dropSrc = `package service
import (
	"encoding/json"
	"fmt"
	"io"
)
func f(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v)
	fmt.Fprintln(w, "x")
}
`
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags dropped Encode and Fprintln", "pdr/internal/service", dropSrc, 2},
		{"blank assignment acknowledged", "pdr/internal/service", `package service
import (
	"encoding/json"
	"io"
)
func f(w io.Writer, v any) {
	_ = json.NewEncoder(w).Encode(v)
}
`, 0},
		{"handled error allowed", "pdr/internal/wire", `package wire
import "io"
func f(w io.Writer) error {
	_, err := w.Write([]byte("x"))
	return err
}
`, 0},
		{"unrestricted package allowed", "pdr/internal/x", dropSrc, 0},
		{"ignore suppresses", "pdr/internal/experiments", `package experiments
import (
	"fmt"
	"io"
)
func f(w io.Writer) {
	fmt.Fprintln(w, "x") // lint:ignore errchecklite test fixture
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerErrCheckLite), "errchecklite", tc.want)
		})
	}
}

func TestPanicPrefix(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags unprefixed panic", "pdr/internal/tprtree", `package tprtree
func f() { panic("boom") }
`, 1},
		{"prefixed literal allowed", "pdr/internal/tprtree", `package tprtree
func f() { panic("tprtree: boom") }
`, 0},
		{"prefixed Sprintf allowed", "pdr/internal/tprtree", `package tprtree
import "fmt"
func f(n int) { panic(fmt.Sprintf("tprtree: level %d underflow", n)) }
`, 0},
		{"wrong-package prefix flagged", "pdr/internal/tprtree", `package tprtree
func f() { panic("storage: boom") }
`, 1},
		{"dynamic message left to humans", "pdr/internal/tprtree", `package tprtree
func f(err error) { panic(err) }
`, 0},
		{"unrestricted package allowed", "pdr/internal/x", `package x
func f() { panic("boom") }
`, 0},
		{"concatenation checks left spine", "pdr/internal/tprtree", `package tprtree
func f(msg string) { panic("tprtree: " + msg) }
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerPanicPrefix), "panicprefix", tc.want)
		})
	}
}

func TestMetricName(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{"flags missing pdr prefix", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) { reg.Counter("http_requests_total", "help") }
`, 1},
		{"flags camel case", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) { reg.Gauge("pdr_poolPages", "help") }
`, 1},
		{"flags bare prefix", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) { reg.Counter("pdr", "help") }
`, 1},
		{"flags trailing underscore", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) { reg.Histogram("pdr_query_seconds_", "help", nil) }
`, 1},
		{"well-formed name allowed", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) {
	reg.Counter("pdr_engine_queries_total", "help")
	reg.Histogram("pdr_http_request_seconds", "help", nil)
	reg.GaugeFunc("pdr_pool_hit_ratio", "help", func() float64 { return 0 })
}
`, 0},
		{"constant expression resolved", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
const prefix = "pdr_engine"
func f(reg *telemetry.Registry) { reg.Counter(prefix+"_Bad", "help") }
`, 1},
		{"dynamic name left to runtime check", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry, name string) { reg.Counter(name, "help") }
`, 0},
		{"unrelated Counter method ignored", "pdr/internal/x", `package x
type Registry struct{}
func (*Registry) Counter(name, help string) {}
func f(reg *Registry) { reg.Counter("whatever", "help") }
`, 0},
		{"ignore suppresses", "pdr/internal/x", `package x
import "pdr/internal/telemetry"
func f(reg *telemetry.Registry) {
	reg.Counter("bad_name", "help") // lint:ignore metricname test fixture
}
`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, analyze(t, tc.path, tc.src, AnalyzerMetricName), "metricname", tc.want)
		})
	}
}

func TestMalformedIgnoreDirective(t *testing.T) {
	diags := analyze(t, "pdr/internal/x", `package x
func f(a, b float64) bool {
	return a == b // lint:ignore floateq
}
`, AnalyzerFloatEq, AnalyzerDirective)
	// The reason-less directive does not suppress, and is itself reported.
	var directive, floateq int
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			directive++
		case "floateq":
			floateq++
		}
	}
	if directive != 1 || floateq != 1 {
		t.Fatalf("got %d directive + %d floateq findings, want 1 + 1:\n%v", directive, floateq, diags)
	}
}

func TestMalformedIgnoreSilentWithoutDirectiveAnalyzer(t *testing.T) {
	// Under `-only floateq` the directive analyzer is not in the running
	// set, so no finding may carry its name — the malformed directive still
	// fails to suppress, but is not itself reported.
	diags := analyze(t, "pdr/internal/x", `package x
func f(a, b float64) bool {
	return a == b // lint:ignore floateq
}
`, AnalyzerFloatEq)
	wantFindings(t, diags, "floateq", 1)
}

func TestIgnoreAll(t *testing.T) {
	diags := analyze(t, "pdr/internal/core", `package core
import "time"
func f(a, b float64) bool {
	return a == b && time.Now().IsZero() // lint:ignore all test fixture
}
`, AnalyzerFloatEq, AnalyzerWallClock)
	wantFindings(t, diags, "", 0)
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"floateq", "wallclock"})
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName(floateq,wallclock) = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName(nosuch) did not error")
	}
}

// TestSuiteIsClean runs the full analyzer suite over the real module — the
// committed tree must stay finding-free (the same gate scripts/check.sh
// enforces via cmd/pdrvet).
func TestSuiteIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := testModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	pkgs, errs := m.LoadAll()
	if len(errs) > 0 {
		t.Fatalf("loading packages: %v", errs)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

func TestDiagnosticOrderIsDeterministic(t *testing.T) {
	// Regression: findings sort by (package, file, line, col, analyzer,
	// message) so repeated runs and CI diffs are byte-stable regardless of
	// package load order or analyzer scheduling.
	mk := func(pkg, file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Pkg:      pkg,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}
	want := []Diagnostic{
		mk("pdr/internal/a", "a.go", 1, 1, "floateq", "x"),
		mk("pdr/internal/a", "a.go", 1, 1, "locked", "x"),
		mk("pdr/internal/a", "a.go", 1, 2, "floateq", "x"),
		mk("pdr/internal/a", "a.go", 2, 1, "floateq", "x"),
		mk("pdr/internal/a", "b.go", 1, 1, "floateq", "x"),
		mk("pdr/internal/b", "a.go", 1, 1, "floateq", "x"),
		mk("pdr/internal/b", "a.go", 1, 1, "floateq", "y"),
	}
	got := make([]Diagnostic, len(want))
	for i, j := range []int{6, 3, 0, 5, 2, 4, 1} {
		got[i] = want[j]
	}
	sortDiags(got)
	for i := range want {
		if got[i].String() != want[i].String() || got[i].Pkg != want[i].Pkg || got[i].Message != want[i].Message {
			t.Fatalf("position %d: got %s (pkg %s, msg %s), want %s (pkg %s, msg %s)",
				i, got[i], got[i].Pkg, got[i].Message, want[i], want[i].Pkg, want[i].Message)
		}
	}
}
