// Command pdrquery loads a workload file produced by pdrgen and answers
// ad-hoc pointwise-dense-region queries with any of the paper's methods,
// printing the dense rectangles (or an ASCII density map). With -svg it also
// renders the answer as an SVG — the repository's equivalent of the paper's
// Fig. 7 plots: the dense rectangles, their outline rings, the PA contour at
// the threshold and the objects' positions at the query time.
//
// Usage:
//
//	pdrquery -data workload.jsonl -method fr -varrho 3 -l 60 [-at now+10] [-map] [-svg dense.svg]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/viz"
	"pdr/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit status) made
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdrquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.data, "data", "", "workload file from pdrgen (required)")
	fs.StringVar(&o.method, "method", "fr", "query method: fr, pa, dh-opt, dh-pess, bf")
	fs.Float64Var(&o.varrho, "varrho", 3, "relative density threshold (paper's 1..5)")
	fs.Float64Var(&o.l, "l", 60, "neighborhood edge length")
	fs.StringVar(&o.at, "at", "now", "query timestamp: now, now+K, or an absolute tick")
	fs.BoolVar(&o.showMap, "map", false, "print an ASCII map of the dense region")
	fs.BoolVar(&o.rects, "rects", false, "print every dense rectangle")
	fs.StringVar(&o.svg, "svg", "", "also render the answer as an SVG to this file (- for stdout, the text then going to stderr)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.data == "" {
		fmt.Fprintln(stderr, "pdrquery: -data is required")
		fs.Usage()
		return 2
	}
	if err := query(stdout, stderr, o); err != nil {
		fmt.Fprintln(stderr, "pdrquery:", err)
		return 1
	}
	return 0
}

// options are pdrquery's flags.
type options struct {
	data, method, at string
	svg              string
	varrho, l        float64
	showMap, rects   bool
}

// query loads the workload file, answers one snapshot query and prints it,
// to stderr when the SVG goes to stdout.
func query(stdout, stderr io.Writer, o options) error {
	text := stdout
	if o.svg == "-" {
		text = stderr
	}
	cfg := core.DefaultConfig()
	cfg.L = o.l
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	f, err := os.Open(o.data)
	if err != nil {
		return err
	}
	records, err := wire.Replay(f, srv)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(text, "loaded %d records; %d live objects at tick %d\n", records, srv.NumObjects(), srv.Now())

	qt, err := parseAt(o.at, srv.Now())
	if err != nil {
		return err
	}
	m, err := core.ParseMethod(o.method)
	if err != nil {
		return err
	}
	rho := core.RelativeThreshold(srv.NumObjects(), o.varrho, cfg.Area)
	res, err := srv.Snapshot(core.Query{Rho: rho, L: o.l, At: qt}, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(text, "method=%s rho=%.6g l=%g qt=%d\n", res.Method, rho, o.l, qt)
	fmt.Fprintf(text, "dense region: %d rects, area %.1f (%.3f%% of the plane)\n",
		len(res.Region), res.Area, 100*res.Area/cfg.Area.Area())
	fmt.Fprintf(text, "cost: cpu=%v ios=%d io-time=%v total=%v\n", res.CPU, res.IOs, res.IOTime, res.Total())
	if res.Method == core.FR {
		fmt.Fprintf(text, "filter: accepted=%d rejected=%d candidates=%d objects-retrieved=%d\n",
			res.Accepted, res.Rejected, res.Candidates, res.ObjectsRetrieved)
	}
	if o.rects {
		for _, r := range res.Region {
			fmt.Fprintln(text, " ", r)
		}
	}
	if o.showMap {
		printMap(text, res.Region, cfg.Area, 60, 30)
	}
	if o.svg == "" {
		return nil
	}
	segs, err := srv.Contours(qt, rho, svgContourRes)
	if err != nil {
		return err
	}
	scene := &viz.Scene{
		Area:   cfg.Area,
		Title:  fmt.Sprintf("PDR %s: rho=%.4g l=%g t=%d (%d rects)", res.Method, rho, o.l, qt, len(res.Region)),
		Region: res.Region,
		Rings:  res.Region.Outline(),
	}
	for _, st := range srv.LiveStates() {
		if p := st.PositionAt(qt); cfg.Area.Contains(p) {
			scene.Points = append(scene.Points, p)
		}
	}
	for _, sg := range segs {
		scene.Contours = append(scene.Contours, viz.Segment{A: sg.A, B: sg.B})
	}
	return writeSVG(stdout, o.svg, scene)
}

// svgContourRes is the sampling resolution of the SVG's contour.
const svgContourRes = 128

// writeSVG renders scene to the file at path, or to stdout for "-".
func writeSVG(stdout io.Writer, path string, scene *viz.Scene) error {
	if path == "-" {
		return scene.WriteSVG(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = scene.WriteSVG(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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

// printMap renders the dense region as a w x h ASCII grid.
func printMap(out io.Writer, region geom.Region, area geom.Rect, w, h int) {
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
