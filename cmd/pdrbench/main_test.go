package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"pdr/internal/experiments"
)

// scaleArgs are the flags that put a run at experiments.TestParams() scale.
func scaleArgs() []string {
	p := experiments.TestParams()
	return []string{
		"-n", strconv.Itoa(p.N),
		"-queries", strconv.Itoa(p.QueriesPerPoint),
		"-warm", strconv.Itoa(p.WarmTicks),
		"-seed", strconv.FormatInt(p.Seed, 10),
	}
}

func TestTable1Section(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-exp", "table1"}, scaleArgs()...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"=== Table 1 — experimental setup ===",
		"Number of objects",
		strconv.Itoa(experiments.TestParams().N),
		"total runtime:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n=== ") != 1 {
		t.Errorf("-exp table1 printed more than its own section:\n%s", out)
	}
}

// An unknown name is a usage error raised before any experiment starts:
// exit 2, nothing on stdout, every valid name on stderr. "parallel" was a
// valid name until the host studies moved to bench/.
func TestUnknownExperimentExits2WithNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// No scaleArgs: at the default -n 100000 a run that got as far as
	// building a server would take minutes, not microseconds.
	if code := run([]string{"-exp", "parallel"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "parallel"`) {
		t.Errorf("stderr does not name the bad value:\n%s", msg)
	}
	for _, e := range table {
		if !strings.Contains(msg, e.name) {
			t.Errorf("stderr does not list %q:\n%s", e.name, msg)
		}
	}
	if !strings.Contains(msg, "all") {
		t.Errorf("stderr does not list \"all\":\n%s", msg)
	}
}

func TestEveryAllSectionSelectableByName(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.title] {
			t.Errorf("-exp all runs section %q twice", e.title)
		}
		seen[e.title] = true
		one, err := selectExperiments(e.name)
		if err != nil {
			t.Errorf("%q runs under all but is rejected by name: %v", e.name, err)
		} else if len(one) != 1 || one[0].title != e.title {
			t.Errorf("-exp %s selects %+v", e.name, one)
		}
	}
	// The other direction: a name left out of "all" is a second name for a
	// section "all" does run, not an experiment "all" silently skips.
	for _, e := range table {
		if !e.inAll && !seen[e.title] {
			t.Errorf("%q is selectable by name but its section never runs under all", e.name)
		}
	}
}
