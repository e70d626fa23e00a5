package lint

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var updateFindings = flag.Bool("update-findings", false, "rewrite "+findingsGolden+" from this build's findings")

// findingsGolden pins every diagnostic analyze returns, one line per
// finding: the test name, line:col, the analyzer and the message. The
// tests count findings; the golden also catches a finding that moves or
// is reworded. -update-findings rewrites it, which is only right when a
// finding is meant to change.
const findingsGolden = "testdata/findings.golden"

// findings collects, per test that called analyze, the golden lines it
// produced in call order.
var findings = struct {
	sync.Mutex
	byTest map[string][]string
}{byTest: make(map[string][]string)}

// goldenFindings reads findingsGolden into per-test line lists.
var goldenFindings = sync.OnceValues(func() (map[string][]string, error) {
	data, err := os.ReadFile(findingsGolden)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if test, _, ok := strings.Cut(line, " "); ok {
			out[test] = append(out[test], line)
		}
	}
	return out, nil
})

// recordFindings appends diags to t's golden lines and, on t's first call,
// registers the comparison against findingsGolden for when t ends.
func recordFindings(t *testing.T, diags []Diagnostic) {
	t.Helper()
	findings.Lock()
	defer findings.Unlock()
	lines, seen := findings.byTest[t.Name()]
	for _, d := range diags {
		lines = append(lines, fmt.Sprintf("%s %d:%d [%s] %s", t.Name(), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	findings.byTest[t.Name()] = lines
	if seen || *updateFindings {
		return
	}
	t.Cleanup(func() {
		golden, err := goldenFindings()
		if err != nil {
			t.Fatalf("%v (run with -update-findings to create it)", err)
		}
		findings.Lock()
		got := findings.byTest[t.Name()]
		findings.Unlock()
		want := golden[t.Name()]
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("findings differ from %s (run with -update-findings if the change is meant):\ngot:\n%s\nwant:\n%s",
				findingsGolden, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// TestMain rewrites findingsGolden under -update-findings. On a run of
// every test it also fails when the golden names a test that no longer
// calls analyze, so a deleted or renamed test cannot leave stale lines.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	tests := make([]string, 0, len(findings.byTest))
	for name := range findings.byTest {
		tests = append(tests, name)
	}
	sort.Strings(tests)
	if *updateFindings {
		var b strings.Builder
		for _, name := range tests {
			for _, line := range findings.byTest[name] {
				b.WriteString(line + "\n")
			}
		}
		if err := os.WriteFile(findingsGolden, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		os.Exit(code)
	}
	if code == 0 && flag.Lookup("test.run").Value.String() == "" && flag.Lookup("test.skip").Value.String() == "" {
		golden, err := goldenFindings()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for name := range golden {
			if _, ran := findings.byTest[name]; !ran {
				fmt.Fprintf(os.Stderr, "%s names %s, which no longer calls analyze; run with -update-findings\n", findingsGolden, name)
				code = 1
			}
		}
	}
	os.Exit(code)
}

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
// path and runs the named analyzers over it (plus ignore handling). Every
// diagnostic it returns is checked against findingsGolden.
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
	diags := Run([]*Package{pkg}, analyzers)
	recordFindings(t, diags)
	return diags
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

func TestIgnoreNamingUnknownAnalyzer(t *testing.T) {
	// A directive for an analyzer that is not registered (deleted, or a
	// typo) can never suppress anything; it is reported rather than left to
	// live forever. The registered name beside it still suppresses.
	src := `package x
func f(a, b float64) bool {
	return a == b // lint:ignore floateq,hotalloc fixture
}
`
	diags := analyze(t, "pdr/internal/x", src, AnalyzerFloatEq, AnalyzerDirective)
	wantFindings(t, diags, "directive", 1)
	if !strings.Contains(diags[0].Message, `unknown analyzer "hotalloc"`) {
		t.Errorf("message = %q, want the unknown name", diags[0].Message)
	}
	// Without the directive analyzer in the run, no finding carries its name.
	wantFindings(t, analyze(t, "pdr/internal/x", src, AnalyzerFloatEq), "", 0)
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
// committed tree must stay finding-free, the gate `go run ./cmd/pdrvet ./...`
// would be.
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

// TestInventoryMatchesDocs: every analyzer the suite runs has a "### name"
// section in docs/LINT.md, and every such section names an analyzer.
func TestInventoryMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "LINT.md"))
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, line := range strings.Split(string(doc), "\n") {
		if name, ok := strings.CutPrefix(line, "### "); ok {
			name, _, _ = strings.Cut(name, " ")
			documented = append(documented, name)
		}
	}
	sort.Strings(documented)
	registered := Names()
	sort.Strings(registered)
	if !slices.Equal(registered, documented) {
		t.Errorf("analyzer inventory drift:\n  All():        %v\n  docs/LINT.md: %v", registered, documented)
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
		mk("pdr/internal/a", "a.go", 1, 1, "wallclock", "x"),
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
