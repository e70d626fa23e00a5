// Command pdrviz renders a PDR query answer over a workload snapshot as an
// SVG — the repository's equivalent of the paper's Fig. 7 plots.
//
// Usage:
//
//	pdrgen -n 10000 -ticks 5 -o wl.jsonl
//	pdrviz -data wl.jsonl -method fr -varrho 3 -l 60 -o dense.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pdr/internal/core"
	"pdr/internal/motion"
	"pdr/internal/viz"
	"pdr/internal/wire"
)

func main() {
	var (
		data    = flag.String("data", "", "workload file from pdrgen (required)")
		method  = flag.String("method", "fr", "query method: fr, pa, dh-opt, dh-pess, bf")
		varrho  = flag.Float64("varrho", 3, "relative density threshold")
		l       = flag.Float64("l", 60, "neighborhood edge length")
		ahead   = flag.Int("ahead", 10, "forecast this many ticks ahead")
		width   = flag.Int("width", 800, "canvas width in pixels")
		contour = flag.Bool("contour", true, "overlay an iso-density contour at the threshold")
		objects = flag.Bool("objects", true, "plot object positions")
		out     = flag.String("o", "-", "output SVG file (- for stdout)")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "pdrviz: -data is required")
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
	if _, err := wire.Replay(f, srv); err != nil {
		f.Close()
		fatal(err)
	}
	f.Close()

	m, err := core.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	qt := srv.Now() + motion.Tick(*ahead)
	rho := core.RelativeThreshold(srv.NumObjects(), *varrho, cfg.Area)
	res, err := srv.Snapshot(core.Query{Rho: rho, L: *l, At: qt}, m)
	if err != nil {
		fatal(err)
	}

	scene := &viz.Scene{
		Area:   cfg.Area,
		Width:  *width,
		Title:  fmt.Sprintf("PDR %s: rho=%.4g l=%g t=%d (%d rects)", res.Method, rho, *l, qt, len(res.Region)),
		Region: res.Region,
		Rings:  res.Region.Outline(),
	}
	if *objects {
		for _, st := range srv.LiveStates() {
			p := st.PositionAt(qt)
			if cfg.Area.Contains(p) {
				scene.Points = append(scene.Points, p)
			}
		}
	}
	if *contour {
		segs, err := srv.Surface().Contours(qt, rho, 128)
		if err == nil {
			for _, s := range segs {
				scene.Contours = append(scene.Contours, viz.Segment{A: s.A, B: s.B})
			}
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "-" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		w = of
	}
	if err := scene.WriteSVG(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pdrviz: %d rects, %d rings, %d contour segments, %d objects\n",
		len(scene.Region), len(scene.Rings), len(scene.Contours), len(scene.Points))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdrviz:", err)
	os.Exit(1)
}
