// Congestion alerting and post-incident audit: a standing PDR query watches
// the forecast ten ticks ahead and emits alerts when dense regions appear
// or dissolve; afterwards, the movement archive answers "where exactly was
// it congested at tick T?" for any past tick — the continuous-monitoring
// and historical-audit layers on top of the paper's query engine.
//
// Run with: go run ./examples/alerts
package main

import (
	"fmt"
	"log"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/experiments"
	"pdr/internal/monitor"
)

func main() {
	const vehicles = 15000
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
	// ticks with the fast approximation.
	m := monitor.New(srv)
	rho := experiments.RelRho(vehicles, 3, cfg.Area)
	subID, err := m.Register(monitor.ContinuousQuery{
		Rho: rho, L: cfg.L, Ahead: 10, Every: 2, Method: core.PA,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standing query #%d: rho=%.2g, l=%g, forecast +10 ticks\n\n", subID, rho, cfg.L)

	for tick := 0; tick < 12; tick++ {
		ups := gen.Advance()
		events, err := m.Advance(gen.Now(), ups)
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range events {
			switch {
			case ev.First:
				fmt.Printf("t=%2d  baseline: %.0f sq miles forecast congested at t=%d\n",
					ev.At, ev.Region.Area(), ev.Target)
			case ev.Changed():
				fmt.Printf("t=%2d  ALERT: +%.0f sq miles forming, -%.0f dissolving (forecast t=%d)\n",
					ev.At, ev.Added.Area(), ev.Removed.Area(), ev.Target)
			default:
				fmt.Printf("t=%2d  steady (forecast t=%d)\n", ev.At, ev.Target)
			}
		}
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
