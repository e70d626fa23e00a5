// Fleet resource scheduling — the paper's second motivating application:
// a dispatch center positions service units (tow trucks, taxis, ambulances)
// near regions where demand will concentrate.
//
// Strategy: the cheap Chebyshev approximation scans the whole plane every
// round and nominates hotspot rectangles; the exact filtering-refinement
// method then verifies only the nominated neighborhoods before units are
// committed. This is the "quick responses on large datasets" pattern the
// paper recommends PA for (Sec. 7.3).
//
// Run with: go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"slices"
	"sort"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/geom"
)

const (
	demandPoints = 30000
	units        = 5
)

func main() {
	gen, err := datagen.New(datagen.DefaultConfig(demandPoints))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.L = 60
	srv, err := core.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Load(gen.InitialStates()); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ups := gen.Advance()
		if err := srv.Tick(gen.Now(), ups); err != nil {
			log.Fatal(err)
		}
	}

	rho := core.RelativeThreshold(srv.NumObjects(), 2, cfg.Area)
	q := core.Query{Rho: rho, L: cfg.L, At: srv.Now() + 20}

	// Step 1: cheap approximate scan of the whole plane.
	approx, err := srv.Snapshot(q, core.PA)
	if err != nil {
		log.Fatal(err)
	}
	hotspots := topHotspots(approx.Region, units*3)
	fmt.Printf("PA scan (%v): %d candidate hotspots\n", approx.CPU, len(hotspots))

	// Step 2: verify nominations exactly and rank by verified dense area.
	type verified struct {
		center geom.Point
		area   float64
	}
	var ranked []verified
	exact, err := srv.Snapshot(q, core.FR)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hotspots {
		va := exact.Region.IntersectionArea(geom.Region{h})
		if va > 0 {
			ranked = append(ranked, verified{center: h.Center(), area: va})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].area > ranked[j].area })
	fmt.Printf("FR verification (%v CPU + %d I/Os): %d hotspots confirmed\n",
		exact.CPU, exact.IOs, len(ranked))

	// Step 3: dispatch.
	fmt.Printf("\ndispatching %d units:\n", units)
	for i := 0; i < units && i < len(ranked); i++ {
		fmt.Printf("  unit %d -> stage near %v (verified dense area %.1f sq miles)\n",
			i+1, ranked[i].center, ranked[i].area)
	}
	if len(ranked) < units {
		fmt.Printf("  %d units held in reserve (demand below threshold elsewhere)\n", units-len(ranked))
	}
}

// topHotspots returns the k largest rectangles of the region by area,
// largest first. The region is the engine's answer, which is read-only, so
// only the k winners are copied.
func topHotspots(region geom.Region, k int) []geom.Rect {
	top := make([]geom.Rect, 0, k+1)
	for _, r := range region {
		i := sort.Search(len(top), func(i int) bool { return top[i].Area() < r.Area() })
		if i < k {
			top = slices.Insert(top, i, r)[:min(len(top)+1, k)]
		}
	}
	return top
}
