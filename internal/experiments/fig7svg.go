package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/viz"
)

// Fig7SVG renders the paper's Fig. 7 as SVG files — the object snapshot
// (7a) and the dense regions found by FR (7b) and PA (7c) — into dir, and
// returns the written paths.
func (r *Runner) Fig7SVG(dir string) ([]string, error) {
	n := r.P.N / 10
	if n < 1000 {
		n = r.P.N
	}
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.envAt(l, n)
	if err != nil {
		return nil, err
	}
	area := e.S.Config().Area
	rho := core.RelativeThreshold(e.S.NumObjects(), 3, area)
	qt := e.S.Now()

	var points []geom.Point
	for _, st := range e.S.LiveStates() {
		p := st.PositionAt(qt)
		if area.Contains(p) {
			points = append(points, p)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name, title string, region geom.Region, withPoints bool) error {
		scene := &viz.Scene{Area: area, Width: 700, Title: title, Region: region}
		if withPoints {
			scene.Points = points
		}
		if len(region) > 0 {
			scene.Rings = region.Outline()
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := scene.WriteSVG(f); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}

	if err := write("fig7a_objects.svg", fmt.Sprintf("Fig 7a: %d objects at t=%d", len(points), qt), nil, true); err != nil {
		return nil, err
	}
	fr, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, core.FR)
	if err != nil {
		return nil, err
	}
	if err := write("fig7b_fr.svg", "Fig 7b: dense regions (FR, exact)", fr.Region, false); err != nil {
		return nil, err
	}
	paRes, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, core.PA)
	if err != nil {
		return nil, err
	}
	if err := write("fig7c_pa.svg", "Fig 7c: dense regions (PA, approximate)", paRes.Region, false); err != nil {
		return nil, err
	}
	return paths, nil
}
