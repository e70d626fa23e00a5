// Quickstart: generate a small moving-object workload, feed it to the PDR
// server, and answer one exact pointwise-dense-region query.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pdr/internal/core"
	"pdr/internal/datagen"
)

func main() {
	// A workload of 5,000 vehicles on a synthetic metro road network in a
	// 1,000 x 1,000-mile plane (the paper's setting).
	gen, err := datagen.New(datagen.DefaultConfig(5000))
	if err != nil {
		log.Fatal(err)
	}

	// The server maintains a density histogram, Chebyshev density surfaces
	// and a TPR-tree for the horizon [now, now+U+W].
	srv, err := core.NewServer(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Load(gen.InitialStates()); err != nil {
		log.Fatal(err)
	}

	// Stream ten ticks of location updates.
	for i := 0; i < 10; i++ {
		if err := srv.Tick(gen.Now()+1, nil); err != nil {
			log.Fatal(err)
		}
		// datagen produces updates as delete+insert pairs.
		updates := gen.Advance()
		for _, u := range updates {
			if err := srv.Apply(u); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Ask: which regions will have at least rho objects per square mile in
	// every 30-mile square neighborhood, 15 ticks from now?
	rho := core.RelativeThreshold(srv.NumObjects(), 3, srv.Config().Area) // paper's varrho=3
	q := core.Query{Rho: rho, L: 30, At: srv.Now() + 15}

	res, err := srv.Snapshot(q, core.FR) // exact filtering-refinement
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact dense region at t=%d: %d rectangles, %.1f sq miles\n",
		q.At, len(res.Region), res.Region.Area())
	fmt.Printf("filter step: %d accepted, %d rejected, %d candidate cells\n",
		res.Accepted, res.Rejected, res.Candidates)
	fmt.Printf("query cost: %v CPU + %d I/Os\n", res.CPU, res.IOs)

	for i, r := range res.Region {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(res.Region)-5)
			break
		}
		fmt.Printf("  dense: %v\n", r)
	}
}
