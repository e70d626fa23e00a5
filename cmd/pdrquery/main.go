// Command pdrquery loads a workload file produced by pdrgen and answers
// ad-hoc pointwise-dense-region queries with any of the paper's methods,
// printing the dense rectangles (or an ASCII density map).
//
// Usage:
//
//	pdrquery -data workload.jsonl -method fr -varrho 3 -l 60 [-at now+10] [-map]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pdr/internal/core"
	"pdr/internal/experiments"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

func main() {
	var (
		data    = flag.String("data", "", "workload file from pdrgen (required)")
		method  = flag.String("method", "fr", "query method: fr, pa, dh-opt, dh-pess, bf")
		varrho  = flag.Float64("varrho", 3, "relative density threshold (paper's 1..5)")
		l       = flag.Float64("l", 60, "neighborhood edge length")
		at      = flag.String("at", "now", "query timestamp: now, now+K, or an absolute tick")
		showMap = flag.Bool("map", false, "print an ASCII map of the dense region")
		rects   = flag.Bool("rects", false, "print every dense rectangle")
		plan    = flag.Bool("plan", false, "show the planner's method recommendation first")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "pdrquery: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.L = *l
	srv, err := core.NewServer(cfg)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*data)
	if err != nil {
		fatal(err)
	}
	records, err := wire.Replay(f, srv)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d records; %d live objects at tick %d\n", records, srv.NumObjects(), srv.Now())

	qt, err := parseAt(*at, srv.Now())
	if err != nil {
		fatal(err)
	}
	m, err := parseMethod(*method)
	if err != nil {
		fatal(err)
	}
	rho := experiments.RelRho(srv.NumObjects(), *varrho, cfg.Area)
	if *plan {
		p, err := srv.Recommend(core.Query{Rho: rho, L: *l, At: qt}, true)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("planner: %s — %s\n", p.Method, p.Reason)
	}
	res, err := srv.Snapshot(core.Query{Rho: rho, L: *l, At: qt}, m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("method=%s rho=%.6g l=%g qt=%d\n", res.Method, rho, *l, qt)
	fmt.Printf("dense region: %d rects, area %.1f (%.3f%% of the plane)\n",
		len(res.Region), res.Area, 100*res.Area/cfg.Area.Area())
	fmt.Printf("cost: cpu=%v ios=%d io-time=%v total=%v\n", res.CPU, res.IOs, res.IOTime, res.Total())
	if res.Method == core.FR {
		fmt.Printf("filter: accepted=%d rejected=%d candidates=%d objects-retrieved=%d\n",
			res.Accepted, res.Rejected, res.Candidates, res.ObjectsRetrieved)
	}
	if *rects {
		for _, r := range res.Region {
			fmt.Println(" ", r)
		}
	}
	if *showMap {
		printMap(os.Stdout, res.Region, cfg.Area, 60, 30)
	}
}

func parseAt(s string, now motion.Tick) (motion.Tick, error) {
	switch {
	case s == "now":
		return now, nil
	case strings.HasPrefix(s, "now+"):
		k, err := strconv.Atoi(s[len("now+"):])
		if err != nil {
			return 0, fmt.Errorf("bad -at %q", s)
		}
		return now + motion.Tick(k), nil
	default:
		k, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad -at %q", s)
		}
		return motion.Tick(k), nil
	}
}

func parseMethod(s string) (core.Method, error) {
	switch strings.ToLower(s) {
	case "fr":
		return core.FR, nil
	case "pa":
		return core.PA, nil
	case "dh-opt", "dhopt":
		return core.DHOptimistic, nil
	case "dh-pess", "dhpess":
		return core.DHPessimistic, nil
	case "bf", "bruteforce":
		return core.BruteForce, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

// printMap renders the dense region as a w x h ASCII grid.
func printMap(out *os.File, region geom.Region, area geom.Rect, w, h int) {
	for row := h - 1; row >= 0; row-- {
		var sb strings.Builder
		for col := 0; col < w; col++ {
			p := geom.Point{
				X: area.MinX + (float64(col)+0.5)*area.Width()/float64(w),
				Y: area.MinY + (float64(row)+0.5)*area.Height()/float64(h),
			}
			if region.Contains(p) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		fmt.Fprintln(out, sb.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdrquery:", err)
	os.Exit(1)
}
