// Command pdrbench regenerates the PDR paper's evaluation: every table and
// figure of Sec. 7 plus the ablations called out in DESIGN.md.
//
// Usage:
//
//	pdrbench [-exp all] [-n 100000] [-queries 5] [-warm 20] [-seed 1] [-sizes 10000,50000,100000]
//
// -exp takes one name from the experiments table below, or "all". Absolute
// numbers depend on the host; the paper's shapes (who wins, by what factor)
// are the reproduction target. How fast the engine is on this host is
// bench/'s question, not this command's (docs/PERFORMANCE.md, "Measuring").
// Exits 2 on a usage error (bad flag, unknown experiment), 1 when an
// experiment fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pdr/internal/experiments"
)

// options are the flags an experiment may read beyond the runner's Params.
type options struct {
	sizes  []int  // fig10b dataset sizes
	svgDir string // fig7 also renders SVG plots here when set
}

// experiment is one section of the report.
type experiment struct {
	name  string // the -exp value that selects it
	title string // section header
	// inAll is false only for the second name of a section "all" already
	// runs under its first (fig8b, fig8d).
	inAll bool
	run   func(w io.Writer, r *experiments.Runner, o options) error
}

// table is the one list of experiments, in report order: the -exp help
// text, the name check and the dispatch all read it.
var table = []experiment{
	{"table1", "Table 1 — experimental setup", true, table1},
	{"fig7", "Fig 7 — example: dense regions found by FR and PA", true, fig7},
	{"fig8a", "Fig 8(a)/8(b) — accuracy vs varrho and l: PA vs DH baselines", true, fig8Accuracy},
	{"fig8b", "Fig 8(a)/8(b) — accuracy vs varrho and l: PA vs DH baselines", false, fig8Accuracy},
	{"fig8c", "Fig 8(c)/8(d) — accuracy vs memory budget", true, fig8Memory},
	{"fig8d", "Fig 8(c)/8(d) — accuracy vs memory budget", false, fig8Memory},
	{"fig9a", "Fig 9(a) — query CPU: PA vs DH", true, fig9a},
	{"fig9b", "Fig 9(b) — build CPU per location update: PA vs DH", true, fig9b},
	{"fig10a", "Fig 10(a) — total query cost: PA vs FR", true, fig10a},
	{"fig10b", "Fig 10(b) — query cost vs dataset size", true, fig10b},
	{"interval", "Interval (extension) — interval PDR cost and union growth vs window width", true, interval},
	{"baselines", "Baselines — prior-art methods (Figs 1-3 arguments) quantified vs exact PDR", true, baselines},
	{"ablations", "Ablations — design choices called out in DESIGN.md", true, ablations},
}

// validNames lists what -exp accepts, in table order.
func validNames() string {
	names := make([]string, 0, len(table)+1)
	for _, e := range table {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selectExperiments resolves an -exp value to the sections it runs.
func selectExperiments(name string) ([]experiment, error) {
	var sel []experiment
	for _, e := range table {
		if e.name == name || (name == "all" && e.inAll) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, validNames())
	}
	return sel, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit status) made
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment to run ("+validNames()+")")
		n       = fs.Int("n", 100000, "number of moving objects (CH100K analogue)")
		queries = fs.Int("queries", 5, "queries per parameter point")
		warm    = fs.Int("warm", 20, "warm-up ticks of update traffic before measuring")
		seed    = fs.Int64("seed", 1, "workload seed")
		sizes   = fs.String("sizes", "10000,50000,100000", "dataset sizes for fig10b")
		svgDir  = fs.String("svgdir", "", "when set, fig7 also renders SVG plots into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel, err := selectExperiments(strings.ToLower(*exp))
	if err != nil {
		fmt.Fprintln(stderr, "pdrbench:", err)
		return 2
	}
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(stderr, "pdrbench: -sizes:", err)
		return 2
	}

	p := experiments.DefaultParams()
	p.N = *n
	p.QueriesPerPoint = *queries
	p.WarmTicks = *warm
	p.Seed = *seed
	r := experiments.NewRunner(p)
	o := options{sizes: sizeList, svgDir: *svgDir}

	start := time.Now()
	for _, e := range sel {
		fmt.Fprintf(stdout, "\n=== %s ===\n", e.title)
		if err := e.run(stdout, r, o); err != nil {
			fmt.Fprintf(stderr, "pdrbench: %s: %v\n", e.name, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "\ntotal runtime: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// emit renders one figure's rows as an aligned table. err is the error of
// the call that produced rows, passed through unrendered.
func emit[T any](w io.Writer, rows []T, err error, render func(io.Writer, []T) error) error {
	if err != nil {
		return err
	}
	return render(w, rows)
}

func table1(w io.Writer, r *experiments.Runner, _ options) error {
	return r.Table1(w)
}

func fig7(w io.Writer, r *experiments.Runner, o options) error {
	rows, err := r.Fig7()
	if err := emit(w, rows, err, experiments.PrintFig7); err != nil {
		return err
	}
	if o.svgDir == "" {
		return nil
	}
	paths, err := r.Fig7SVG(o.svgDir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Fprintln(w, "wrote", p)
	}
	return nil
}

func fig8Accuracy(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.Fig8Accuracy()
	return emit(w, rows, err, experiments.PrintFig8Accuracy)
}

func fig8Memory(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.Fig8Memory()
	return emit(w, rows, err, experiments.PrintFig8Memory)
}

func fig9a(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.Fig9aQueryCPU()
	return emit(w, rows, err, experiments.PrintFig9a)
}

func fig9b(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.Fig9bBuildCPU()
	return emit(w, rows, err, experiments.PrintFig9b)
}

func fig10a(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.Fig10aQueryCost()
	return emit(w, rows, err, experiments.PrintFig10a)
}

func fig10b(w io.Writer, r *experiments.Runner, o options) error {
	rows, err := r.Fig10bScalability(o.sizes)
	return emit(w, rows, err, experiments.PrintFig10b)
}

func interval(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.ExtIntervalCost([]int{1, 2, 4, 8, 16})
	return emit(w, rows, err, experiments.PrintInterval)
}

func baselines(w io.Writer, r *experiments.Runner, _ options) error {
	rows, err := r.BaselineComparison()
	return emit(w, rows, err, experiments.PrintBaselines)
}

func ablations(w io.Writer, r *experiments.Runner, _ options) error {
	var rows []experiments.AblationRow
	for _, ablate := range []func() ([]experiments.AblationRow, error){
		r.AblationBranchBound, r.AblationLocalPolynomials, r.AblationFilter,
	} {
		part, err := ablate()
		if err != nil {
			return err
		}
		rows = append(rows, part...)
	}
	return experiments.PrintAblation(w, rows)
}
