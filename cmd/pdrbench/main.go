// Command pdrbench regenerates the PDR paper's evaluation: every table and
// figure of Sec. 7 plus the ablations called out in DESIGN.md.
//
// Usage:
//
//	pdrbench [-exp all] [-n 100000] [-queries 5] [-warm 20] [-seed 1] [-sizes 10000,50000,100000]
//
// Experiments: table1, fig7, fig8a, fig8b, fig8c, fig8d, fig9a, fig9b,
// fig10a, fig10b, interval, parallel, cache, shard, hotpath, baselines,
// ablations, all. Absolute numbers depend on the host; the paper's shapes
// (who wins, by what factor) are the reproduction target. "parallel"
// (worker-pool scaling), "cache" (result-cache cold/warm/sliding workloads),
// "shard" (one partition vs several under read and mixed
// read/write load), and "hotpath" (single-core kernel ns/op, B/op,
// allocs/op) are host-dependent by design and not part of "all"; with
// -benchjson DIR they record BENCH_interval.json + BENCH_snapshot.json,
// BENCH_cache.json, BENCH_shard.json, and BENCH_hotpath.json respectively
// (see docs/PERFORMANCE.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pdr/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (table1, fig7, fig8a, fig8b, fig8c, fig8d, fig9a, fig9b, fig10a, fig10b, interval, parallel, cache, shard, hotpath, baselines, ablations, all)")
		n         = flag.Int("n", 100000, "number of moving objects (CH100K analogue)")
		queries   = flag.Int("queries", 5, "queries per parameter point")
		warm      = flag.Int("warm", 20, "warm-up ticks of update traffic before measuring")
		seed      = flag.Int64("seed", 1, "workload seed")
		sizes     = flag.String("sizes", "10000,50000,100000", "dataset sizes for fig10b")
		format    = flag.String("format", "table", "output format for figure data: table or csv")
		svgDir    = flag.String("svgdir", "", "when set, fig7 also renders SVG plots into this directory")
		workers   = flag.String("workers", "1,2,4,8", "worker-pool sizes for -exp parallel")
		cacheB    = flag.Int64("cache-bytes", 64<<20, "result-cache budget for -exp cache")
		shards    = flag.String("shards", "2,4,8", "partition counts for -exp shard (the one-partition baseline always runs first)")
		benchJSON = flag.String("benchjson", "", "when set with -exp parallel, -exp cache, -exp shard, or -exp hotpath, write the BENCH_*.json baselines into this directory")
	)
	flag.Parse()

	p := experiments.DefaultParams()
	p.N = *n
	p.QueriesPerPoint = *queries
	p.WarmTicks = *warm
	p.Seed = *seed

	sizeList, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench:", err)
		os.Exit(2)
	}

	workerList, err := parseSizes(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench: -workers:", err)
		os.Exit(2)
	}

	shardList, err := parseSizes(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench: -shards:", err)
		os.Exit(2)
	}

	r := experiments.NewRunner(p)
	if err := run(r, strings.ToLower(*exp), sizeList, workerList, shardList, *cacheB, *format == "csv", *svgDir, *benchJSON); err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench:", err)
		os.Exit(1)
	}
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

func run(r *experiments.Runner, exp string, sizes, workers, shards []int, cacheBytes int64, asCSV bool, svgDir, benchJSON string) error {
	all := exp == "all"
	section := func(name, paper string) {
		fmt.Printf("\n=== %s — %s ===\n", name, paper)
	}
	start := time.Now()

	if all || exp == "table1" {
		section("Table 1", "experimental setup")
		if err := r.Table1(os.Stdout); err != nil {
			return err
		}
	}
	if all || exp == "fig7" {
		section("Fig 7", "example: dense regions found by FR and PA")
		rows, err := r.Fig7()
		if err != nil {
			return err
		}
		if err := experiments.PrintFig7(os.Stdout, rows); err != nil {
			return err
		}
		if svgDir != "" {
			paths, err := r.Fig7SVG(svgDir)
			if err != nil {
				return err
			}
			for _, p := range paths {
				fmt.Println("wrote", p)
			}
		}
	}
	if all || exp == "fig8a" || exp == "fig8b" {
		section("Fig 8(a)/8(b)", "accuracy vs varrho and l: PA vs DH baselines")
		rows, err := r.Fig8Accuracy()
		if err != nil {
			return err
		}
		if asCSV {
			if err := experiments.CSVFig8Accuracy(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			if err := experiments.PrintFig8Accuracy(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if all || exp == "fig8c" || exp == "fig8d" {
		section("Fig 8(c)/8(d)", "accuracy vs memory budget")
		rows, err := r.Fig8Memory()
		if err != nil {
			return err
		}
		if asCSV {
			if err := experiments.CSVFig8Memory(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			if err := experiments.PrintFig8Memory(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if all || exp == "fig9a" {
		section("Fig 9(a)", "query CPU: PA vs DH")
		rows, err := r.Fig9aQueryCPU()
		if err != nil {
			return err
		}
		if asCSV {
			if err := experiments.CSVFig9a(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			if err := experiments.PrintFig9a(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if all || exp == "fig9b" {
		section("Fig 9(b)", "build CPU per location update: PA vs DH")
		rows, err := r.Fig9bBuildCPU()
		if err != nil {
			return err
		}
		if err := experiments.PrintFig9b(os.Stdout, rows); err != nil {
			return err
		}
	}
	if all || exp == "fig10a" {
		section("Fig 10(a)", "total query cost: PA vs FR")
		rows, err := r.Fig10aQueryCost()
		if err != nil {
			return err
		}
		if asCSV {
			if err := experiments.CSVFig10a(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			if err := experiments.PrintFig10a(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if all || exp == "fig10b" {
		section("Fig 10(b)", "query cost vs dataset size")
		rows, err := r.Fig10bScalability(sizes)
		if err != nil {
			return err
		}
		if asCSV {
			if err := experiments.CSVFig10b(os.Stdout, rows); err != nil {
				return err
			}
		} else {
			if err := experiments.PrintFig10b(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if all || exp == "interval" {
		section("Interval (extension)", "interval PDR cost and union growth vs window width")
		rows, err := r.ExtIntervalCost([]int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		if err := experiments.PrintInterval(os.Stdout, rows); err != nil {
			return err
		}
	}
	// The parallel scaling study is opt-in (not part of "all"): its numbers
	// are host-dependent by design, and "all" reproduces the paper.
	if exp == "parallel" {
		section("Parallel (extension)", "query wall time vs worker-pool size")
		bp := experiments.DefaultParallelBenchParams()
		bp.Workers = workers
		iv, err := r.ParallelInterval(bp)
		if err != nil {
			return err
		}
		if err := experiments.PrintParallel(os.Stdout, iv); err != nil {
			return err
		}
		snap, err := r.ParallelSnapshot(bp)
		if err != nil {
			return err
		}
		if err := experiments.PrintParallel(os.Stdout, snap); err != nil {
			return err
		}
		if benchJSON != "" {
			for name, b := range map[string]*experiments.ParallelBench{
				"BENCH_interval.json": iv, "BENCH_snapshot.json": snap,
			} {
				path := filepath.Join(benchJSON, name)
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				err = b.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
	}
	// Like "parallel", the cache study is opt-in: it measures this host's
	// cold/warm ratio, not a paper figure.
	if exp == "cache" {
		section("Cache (extension)", "result-cache cold vs warm vs sliding-window workloads")
		bp := experiments.DefaultCacheBenchParams()
		bp.CacheBytes = cacheBytes
		cb, err := r.CacheBench(bp)
		if err != nil {
			return err
		}
		if err := experiments.PrintCache(os.Stdout, cb); err != nil {
			return err
		}
		if benchJSON != "" {
			path := filepath.Join(benchJSON, "BENCH_cache.json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = cb.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	// The hotpath study is opt-in for the same reason: it measures this
	// host's per-core kernel cost, not a paper figure.
	if exp == "hotpath" {
		section("Hotpath (extension)", "single-core query kernels: ns/op, B/op, allocs/op")
		hb, err := r.HotpathBench(experiments.DefaultHotpathBenchParams())
		if err != nil {
			return err
		}
		if benchJSON != "" {
			path := filepath.Join(benchJSON, "BENCH_hotpath.json")
			// Carry the pre-optimization numbers forward: a re-recorded
			// baseline keeps the original "before" so the file always shows
			// the rewrite's delta.
			if f, err := os.Open(path); err == nil {
				prior, perr := experiments.ReadHotpathJSON(f)
				f.Close()
				if perr == nil {
					hb.MergeBefore(prior)
				}
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = hb.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		if err := experiments.PrintHotpath(os.Stdout, hb); err != nil {
			return err
		}
	}
	// The shard study is opt-in for the same reason: it measures this
	// host's contention relief, not a paper figure.
	if exp == "shard" {
		section("Shard (extension)", "one partition vs several: snapshot, interval, mixed read/write")
		bp := experiments.DefaultShardBenchParams()
		bp.Shards = shards
		sb, err := r.ShardBench(bp)
		if err != nil {
			return err
		}
		if err := experiments.PrintShard(os.Stdout, sb); err != nil {
			return err
		}
		if benchJSON != "" {
			path := filepath.Join(benchJSON, "BENCH_shard.json")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = sb.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	if all || exp == "baselines" {
		section("Baselines", "prior-art methods (Figs 1-3 arguments) quantified vs exact PDR")
		rows, err := r.BaselineComparison()
		if err != nil {
			return err
		}
		if err := experiments.PrintBaselines(os.Stdout, rows); err != nil {
			return err
		}
	}
	if all || exp == "ablations" {
		section("Ablations", "design choices called out in DESIGN.md")
		var rows []experiments.AblationRow
		bb, err := r.AblationBranchBound()
		if err != nil {
			return err
		}
		lp, err := r.AblationLocalPolynomials()
		if err != nil {
			return err
		}
		fl, err := r.AblationFilter()
		if err != nil {
			return err
		}
		rows = append(rows, bb...)
		rows = append(rows, lp...)
		rows = append(rows, fl...)
		if err := experiments.PrintAblation(os.Stdout, rows); err != nil {
			return err
		}
	}
	switch exp {
	case "all", "table1", "fig7", "fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig10a", "fig10b", "interval", "parallel", "cache", "shard", "hotpath", "baselines", "ablations":
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	fmt.Printf("\ntotal runtime: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
