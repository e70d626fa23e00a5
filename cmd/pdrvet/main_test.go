package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdr/internal/lint"
)

// writeModule lays out a throwaway module under t.TempDir().
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestUnknownAnalyzerExits2WithInventory(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "nosuch"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr does not name the bad analyzer: %q", msg)
	}
	// The inventory must be in the error so a typo is self-diagnosing.
	for _, name := range lint.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr inventory is missing %q: %q", name, msg)
		}
	}
}

func TestListMatchesRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	names := lint.Names()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d analyzers, registry has %d", len(lines), len(names))
	}
	for i, line := range lines {
		if got := strings.Fields(line)[0]; got != names[i] {
			t.Errorf("-list line %d = %q, want analyzer %q", i, got, names[i])
		}
	}
}

func TestJSONOutputRoundTrips(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"eq.go":  "package tmpmod\n\nfunc cmp(a, b float64) bool { return a == b }\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-json", "-only", "floateq"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (one finding): stderr=%s", code, stderr.String())
	}
	diags, err := lint.ReadJSON(&stdout)
	if err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("decoded %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "floateq" || d.Line != 3 || d.Col == 0 || !strings.HasSuffix(d.File, "eq.go") || d.Message == "" {
		t.Errorf("decoded diagnostic has wrong fields: %+v", d)
	}
}

func TestHumanAndJSONAgree(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"eq.go":  "package tmpmod\n\nfunc cmp(a, b float64) bool { return a == b }\n",
	})
	var human, jsonOut, stderr bytes.Buffer
	run([]string{"-root", dir, "-only", "floateq"}, &human, &stderr)
	run([]string{"-root", dir, "-json", "-only", "floateq"}, &jsonOut, &stderr)
	diags, err := lint.ReadJSON(&jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(human.String(), diags[0].Message) {
		t.Errorf("human output %q does not carry the JSON message %+v", human.String(), diags)
	}
}

// TestBrokenPackageDoesNotSuppressOthers pins the tolerant-load contract:
// a package with a syntax error exits 2 and is reported on stderr, but the
// healthy package's findings still come out.
func TestBrokenPackageDoesNotSuppressOthers(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":       "module tmpmod\n\ngo 1.22\n",
		"bad/bad.go":   "package bad\n\nfunc oops( {\n",
		"good/good.go": "package good\n\nfunc cmp(a, b float64) bool { return a == b }\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-only", "floateq"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (load error): stderr=%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad") {
		t.Errorf("stderr does not mention the broken package: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "floateq") {
		t.Errorf("healthy package's finding was suppressed: stdout=%q", stdout.String())
	}
}

func TestNoMatchPatternExits2(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"ok.go":  "package tmpmod\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "./nosuchdir"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2: stderr=%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Errorf("stderr missing pattern error: %q", stderr.String())
	}
}

// TestDryWithoutFixExits2 pins that a stale -dry invocation is a usage
// error: the flag went with -fix, and a script still passing it must fail
// loudly rather than run as a clean check.
func TestDryWithoutFixExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dry"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-dry alone exit = %d, want 2", code)
	}
}

// TestJSONCarriesPkgAndFixes pins the -json shape: the diagnostic carries
// its package, and the remedy travels in the message text.
func TestJSONCarriesPkgAndFixes(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"dedup.go": `package tmpmod

func Dedup(s []float64) []float64 {
	out := s[:0]
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-json", "-only", "poollife"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1: %s", code, stderr.String())
	}
	diags, err := lint.ReadJSON(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Pkg != "tmpmod" {
		t.Fatalf("decoded %+v, want one diagnostic with pkg tmpmod", diags)
	}
	if !strings.Contains(diags[0].Message, "return out[:len(out):len(out)]") {
		t.Errorf("json diagnostic lost the remedy: %s", diags[0].Message)
	}
}
