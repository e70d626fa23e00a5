// Congestion alerting and post-incident audit: a standing PDR query watches
// the forecast ten ticks ahead and emits alerts when dense regions appear
// or dissolve; afterwards, the movement archive answers "where exactly was
// it congested at tick T?" for any past tick — the continuous-monitoring
// and historical-audit uses of the paper's query engine.
//
// Run with: go run ./examples/alerts
package main

import (
	"fmt"
	"log"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/geom"
)

func main() {
	const (
		vehicles = 15000
		ahead    = 10 // forecast distance in ticks
		every    = 2  // re-evaluation period in ticks
	)
	gen, err := datagen.New(datagen.DefaultConfig(vehicles))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.L = 60
	cfg.KeepHistory = true // enable the audit archive
	srv, err := core.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Load(gen.InitialStates()); err != nil {
		log.Fatal(err)
	}

	// Standing query: congestion forecast 10 ticks out, re-checked every 2
	// ticks with the fast approximation and diffed against the last answer.
	rho := core.RelativeThreshold(vehicles, 3, cfg.Area)
	fmt.Printf("standing query: rho=%.2g, l=%g, forecast +%d ticks\n\n", rho, cfg.L, ahead)

	var prev geom.Region
	for tick := 0; tick < 12; tick++ {
		ups := gen.Advance()
		if err := srv.Tick(gen.Now(), ups); err != nil {
			log.Fatal(err)
		}
		if tick%every != 0 {
			continue
		}
		now := srv.Now()
		res, err := srv.Snapshot(core.Query{Rho: rho, L: cfg.L, At: now + ahead}, core.PA)
		if err != nil {
			log.Fatal(err)
		}
		added, removed := geom.Subtract(res.Region, prev), geom.Subtract(prev, res.Region)
		switch {
		case tick == 0:
			fmt.Printf("t=%2d  baseline: %.0f sq miles forecast congested at t=%d\n",
				now, res.Region.Area(), now+ahead)
		case len(added) > 0 || len(removed) > 0:
			fmt.Printf("t=%2d  ALERT: +%.0f sq miles forming, -%.0f dissolving (forecast t=%d)\n",
				now, added.Area(), removed.Area(), now+ahead)
		default:
			fmt.Printf("t=%2d  steady (forecast t=%d)\n", now, now+ahead)
		}
		prev = res.Region
	}

	// Post-incident audit: reconstruct the exact congestion at a past tick
	// from the movement archive.
	auditAt := srv.Now() - 6
	past, err := srv.PastSnapshot(core.Query{Rho: rho, L: cfg.L, At: auditAt})
	if err != nil {
		log.Fatal(err)
	}
	segments, lo, hi := srv.ArchiveSpan()
	fmt.Printf("\naudit: at t=%d the dense region covered %.0f sq miles (%d rects)\n",
		auditAt, past.Region.Area(), len(past.Region))
	fmt.Printf("archive: %d segments spanning ticks [%d, %d)\n", segments, lo, hi)
}
