// Command bench is the repository's benchmark: the instrument every later
// performance claim is measured with. It builds pdrgen and pdrserve from
// source, runs each workload against a real pdrserve child over loopback
// HTTP, checks the answers against its own oracle, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	go run -C bench . -seed 1                      all workloads, end-to-end then traced
//	go run -C bench . -dataseed 2                  the same over another data set
//	go run -C bench . -workload exact-read         one workload
//	go run -C bench . -quick                       smoke run, numbers not comparable
//	go run -C bench . -compare a.json b.json       before/after verdicts
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"pdr/bench/plan"
)

const (
	defaultN       = 20000
	defaultData    = 1
	defaultSeconds = 18
	quickN         = 2000
	quickSeconds   = 1.5
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the traffic: the op lists, the fresh objects, the check queries and their sample points")
		dataSeed = flag.Int64("dataseed", defaultData, "seed of the data set pdrgen generates: the database the traffic runs over; results over different data sets do not compare")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed phase of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics (default: both, one after the other)")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, with seeds seed, seed+1, ...; the result holds every value and their median")
		quick    = flag.Bool("quick", false, "smoke mode: n=2,000 and a tenth of the time; metrics are printed but marked non-comparable")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	workloads := plan.Workloads
	if *workload != "" {
		w, err := plan.Find(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		workloads = []plan.Workload{w}
	}
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	// Without -trace the suite makes both passes: end-to-end first, so that
	// the traced pass cannot disturb it.
	passes := []bool{false, true}
	if given["trace"] {
		passes = []bool{*trace == 1}
	}
	n := defaultN
	if *quick {
		n = quickN
		if !given["seconds"] {
			*seconds = quickSeconds
		}
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		return 2
	}

	// Children are started under ctx, so an interrupt kills them too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	t, err := buildTools(ctx, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	out := newResult(root, *seed, *dataSeed, n, *seconds, *runs, n == defaultN)
	ok := true
	var last *runResult
	for _, traced := range passes {
		for _, w := range workloads {
			for r := 0; r < *runs; r++ {
				cfg := runConfig{w: w, seed: *seed + int64(r), dataSeed: *dataSeed, seconds: *seconds, n: n, trace: traced}
				res, err := runWorkload(ctx, t, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				out.add(w.Name, traced, res)
				printRun(w, cfg, res)
				ok = ok && res.Correct
				last = res
			}
		}
	}
	if err := out.write(filepath.Join(t.out, "result.json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The last line of standard output is the run's result in the driver's
	// shape (for a suite, that of its last run).
	if err := printDriverLine(last, len(passes) == 1 && passes[0]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a check failed (see the notes above)")
		return 1
	}
	return 0
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w plan.Workload, cfg runConfig, res *runResult) {
	kind := "end-to-end"
	if cfg.trace {
		kind = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, data seed %d, n %d, %g s): attempted %d, failed %d, correct %v\n",
		w.Name, kind, cfg.seed, cfg.dataSeed, cfg.n, cfg.seconds, res.Attempted, res.Failed, res.Correct)
	for _, d := range catalogue(cfg.trace) {
		line := fmt.Sprintf("%-34s %14.4f %-6s", d.Name, res.Metrics[d.Name], d.Unit)
		if s, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf(" (%d samples)", s)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, note := range res.Notes {
		fmt.Println("note:", note)
	}
}

// driverMetric is one metric in the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the one JSON object the driver reads: exactly the
// catalogue's metrics, every one present.
func printDriverLine(res *runResult, traced bool) error {
	metrics := map[string]driverMetric{}
	for _, d := range catalogue(traced) {
		metrics[d.Name] = driverMetric{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts describes where a result was measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// resultMetric is one metric of one workload in result.json: every run's
// value, their median, and what is needed to judge a difference.
type resultMetric struct {
	Value   float64   `json:"value"`
	Values  []float64 `json:"values"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// resultWorkload is one workload's share of result.json.
type resultWorkload struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]*resultMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]*resultMetric `json:"per_layer,omitempty"`
	Notes     []string                 `json:"notes,omitempty"`
}

// result is bench/out/result.json.
type result struct {
	// Claim is always null: the benchmark is the instrument, it claims no gain.
	Claim *string `json:"claim"`
	// Comparable is false for -quick runs: their numbers size nothing.
	Comparable bool                       `json:"comparable"`
	Host       hostFacts                  `json:"host"`
	Seed       int64                      `json:"seed"`
	DataSeed   int64                      `json:"data_seed"`
	N          int                        `json:"n"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	Workloads  map[string]*resultWorkload `json:"workloads"`
}

func newResult(root string, seed, dataSeed int64, n int, seconds float64, runs int, comparable bool) *result {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &result{
		Comparable: comparable,
		Host: hostFacts{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: commit,
		},
		Seed: seed, DataSeed: dataSeed, N: n, Seconds: seconds, Runs: runs,
		Workloads: map[string]*resultWorkload{},
	}
}

// add folds one run into the result.
func (r *result) add(workload string, traced bool, res *runResult) {
	w := r.Workloads[workload]
	if w == nil {
		w = &resultWorkload{Correct: true}
		r.Workloads[workload] = w
	}
	w.Correct = w.Correct && res.Correct
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Notes = append(w.Notes, res.Notes...)
	if traced && w.PerLayer == nil {
		w.PerLayer = map[string]*resultMetric{}
	}
	if !traced && w.EndToEnd == nil {
		w.EndToEnd = map[string]*resultMetric{}
	}
	into := w.EndToEnd
	if traced {
		into = w.PerLayer
	}
	for _, d := range catalogue(traced) {
		m := into[d.Name]
		if m == nil {
			m = &resultMetric{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
			into[d.Name] = m
		}
		m.Values = append(m.Values, res.Metrics[d.Name])
		m.Value = plan.Median(m.Values)
		m.Samples += res.Samples[d.Name]
	}
}

func (r *result) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
