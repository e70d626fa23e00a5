// Traffic congestion forecasting — the paper's motivating application: a
// traffic authority watches a metropolitan road network and asks, every few
// minutes, "where will congestion be ten minutes from now?" so commuters
// can be rerouted before jams form.
//
// The example contrasts the exact filtering-refinement answer with the
// fast Chebyshev approximation at each forecast, and finishes with an
// interval query covering the whole prediction window.
//
// Run with: go run ./examples/traffic
package main

import (
	"fmt"
	"log"
	"strings"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

const (
	vehicles   = 20000
	forecast   = 10 // ticks ahead ("ten minutes from now")
	monitorFor = 3  // forecasting rounds
)

func main() {
	gen, err := datagen.New(datagen.DefaultConfig(vehicles))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.L = 30 // congestion is judged in 30-mile square neighborhoods
	srv, err := core.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Load(gen.InitialStates()); err != nil {
		log.Fatal(err)
	}
	rho := core.RelativeThreshold(vehicles, 3, cfg.Area)
	fmt.Printf("monitoring %d vehicles; congestion threshold %.2g vehicles/sq-mile\n\n", vehicles, rho)

	for round := 0; round < monitorFor; round++ {
		// Five minutes of live update traffic between forecasts.
		for i := 0; i < 5; i++ {
			ups := gen.Advance()
			if err := srv.Tick(gen.Now(), ups); err != nil {
				log.Fatal(err)
			}
		}
		q := core.Query{Rho: rho, L: cfg.L, At: srv.Now() + forecast}

		approx, err := srv.Snapshot(q, core.PA)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := srv.Snapshot(q, core.FR)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%d, forecast for t=%d:\n", srv.Now(), q.At)
		fmt.Printf("  PA (dashboard): %4d rects, %8.1f sq miles, %v\n",
			len(approx.Region), approx.Region.Area(), approx.CPU)
		fmt.Printf("  FR (dispatch):  %4d rects, %8.1f sq miles, %v CPU + %d I/Os\n",
			len(exact.Region), exact.Region.Area(), exact.CPU, exact.IOs)
		overlap := 0.0
		if a := exact.Region.Area(); a > 0 {
			overlap = 100 * exact.Region.IntersectionArea(approx.Region) / a
		}
		fmt.Printf("  approximation covers %.1f%% of the exact congestion area\n", overlap)
		printMap(exact.Region, cfg.Area)
		fmt.Println()
	}

	// Union of congested regions across the entire prediction window:
	// "anywhere that will be congested at any time in the next W minutes".
	q := core.Query{Rho: rho, L: cfg.L, At: srv.Now()}
	iv, err := srv.Interval(q, srv.Now()+motion.Tick(cfg.W), core.FR)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interval query over [%d, %d]: %.1f sq miles congested at some point (%v total cost)\n",
		q.At, srv.Now()+motion.Tick(cfg.W), iv.Region.Area(), iv.Total())
}

// printMap renders the congested region over the metro area.
func printMap(region geom.Region, area geom.Rect) {
	const w, h = 48, 16
	for row := h - 1; row >= 0; row-- {
		var sb strings.Builder
		sb.WriteString("  ")
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
		fmt.Println(sb.String())
	}
}
