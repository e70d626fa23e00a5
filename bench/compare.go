package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pdr/bench/plan"
)

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// verdict judges one workload x end-to-end metric: a is the base, b the
// change. The difference is relative to a's median and signed so that
// positive is worse. Beyond the bound it is a regression. Within the bound
// it is ok only if the noise allows the statement: where the base's own
// run-to-run spread (four or more runs) is wider than the bound, or either
// side is missing the metric, the pairing is unresolved, not unchanged.
func verdict(a, b *resultMetric) (worse float64, v string) {
	if a == nil || b == nil || a.Value == 0 {
		return 0, verdictUnresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > a.Bound:
		return worse, verdictRegressed
	case plan.Spread(a.Values) > a.Bound || plan.Spread(b.Values) > a.Bound:
		return worse, verdictUnresolved
	default:
		return worse, verdictOK
	}
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload x end-to-end metric, both values, the
// relative difference with its base, the bound and the verdict. It returns
// the process exit code: non-zero on any regression, and on results that
// cannot be compared at all.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var both [2]*result
	for i, path := range []string{pathA, pathB} {
		r, err := readResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench -compare:", err)
			return 2
		}
		both[i] = r
	}
	return compareResults(w, both[0], both[1])
}

func compareResults(w io.Writer, a, b *result) int {
	if !a.Comparable || !b.Comparable {
		fmt.Fprintln(w, "not comparable: at least one result is from a -quick run")
		return 2
	}
	// lint:ignore floateq configuration identity: both runs must have been
	// given the same -seconds, not nearly the same.
	if a.N != b.N || a.DataSeed != b.DataSeed || a.Seconds != b.Seconds || a.Host.NProc != b.Host.NProc {
		fmt.Fprintf(w, "not comparable: n %d vs %d, data seed %d vs %d, seconds %g vs %g, nproc %d vs %d\n",
			a.N, b.N, a.DataSeed, b.DataSeed, a.Seconds, b.Seconds, a.Host.NProc, b.Host.NProc)
		return 2
	}
	fmt.Fprintf(w, "base %s (seed %d, %d runs)  vs  %s (seed %d, %d runs)\n",
		a.Host.Commit, a.Seed, a.Runs, b.Host.Commit, b.Seed, b.Runs)
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %-6s %9s %7s  %s\n", "workload", "metric", "base", "change", "unit", "worse by", "bound", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from the change: %s\n", name, verdictUnresolved)
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-14s a check failed (base correct=%v, change correct=%v): %s\n", name, wa.Correct, wb.Correct, verdictRegressed)
			code = 1
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse, v := verdict(ma, mb)
			if v == verdictRegressed {
				code = 1
			}
			var va, vb float64
			if ma != nil {
				va = ma.Value
			}
			if mb != nil {
				vb = mb.Value
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %-6s %+8.1f%% %6.0f%%  %s\n",
				name, d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, v)
		}
	}
	return code
}
