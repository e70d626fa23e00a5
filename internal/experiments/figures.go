package experiments

import (
	"fmt"
	"io"
	"time"

	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/dh"
	"pdr/internal/motion"
	"pdr/internal/pa"
	"pdr/internal/storage"
)

// Runner executes the paper's experiments, caching one loaded server per
// neighborhood edge l (the PA surfaces are built for a fixed l, so each l
// needs its own server).
type Runner struct {
	P    Params
	envs map[envKey]*Env
}

type envKey struct {
	l float64
	n int
}

// NewRunner creates a runner for the given scale.
func NewRunner(p Params) *Runner {
	return &Runner{P: p, envs: make(map[envKey]*Env)}
}

// Env returns the cached environment for edge l at the runner's default N.
func (r *Runner) Env(l float64) (*Env, error) {
	return r.envAt(l, r.P.N)
}

func (r *Runner) envAt(l float64, n int) (*Env, error) {
	key := envKey{l, n}
	if e, ok := r.envs[key]; ok {
		return e, nil
	}
	p := r.P
	p.N = n
	cfg := ServerConfig(p)
	cfg.L = l
	e, err := Build(p, cfg)
	if err != nil {
		return nil, err
	}
	r.envs[key] = e
	return e, nil
}

// ---------------------------------------------------------------- Table 1

// Table1 renders the experimental setup (paper Table 1) as rendered rows.
func (r *Runner) Table1(w io.Writer) error {
	cfg := ServerConfig(r.P)
	rep := newReport(w)
	rep.text("Parameter\tValue")
	rep.linef("Page size\t%d B\n", 4096)
	rep.linef("Random disk access time\t%v\n", storage.DefaultRandomIO)
	rep.linef("Maximum update interval (U)\t%d\n", cfg.U)
	rep.linef("Prediction window length (W)\t%d\n", cfg.W)
	rep.linef("Edge length of l-square (l)\t%v\n", r.P.Ls)
	rep.linef("Number of objects\t%d\n", r.P.N)
	rep.linef("Relative density threshold (varrho)\t%v\n", r.P.Varrhos)
	rep.linef("Density histogram cells (m x m)\t%d\n", cfg.HistM*cfg.HistM)
	rep.linef("Num. polynomials (g x g)\t%d\n", cfg.PAGrid*cfg.PAGrid)
	rep.linef("Degree of polynomial (k)\t%d\n", cfg.PADegree)
	rep.linef("Grid for polynomial evaluation (md x md)\t%d x %d\n", cfg.PAMD, cfg.PAMD)
	return rep.flush()
}

// ---------------------------------------------------------------- Fig 7

// Fig7Row summarizes one method's answer on the example snapshot.
type Fig7Row struct {
	Method string
	Rects  int
	Area   float64
	RfpPct float64 // vs FR
	RfnPct float64
}

// Fig7 reproduces the paper's example (Fig. 7): dense regions identified by
// FR and PA on a CH10K-scale snapshot, showing arbitrary shapes/sizes and
// the close match between the two methods.
func (r *Runner) Fig7() ([]Fig7Row, error) {
	n := r.P.N / 10
	if n < 1000 {
		n = r.P.N
	}
	l := r.P.Ls[len(r.P.Ls)-1]
	e, err := r.envAt(l, n)
	if err != nil {
		return nil, err
	}
	rho := core.RelativeThreshold(e.S.NumObjects(), 3, e.S.Config().Area)
	q := core.Query{Rho: rho, L: l, At: e.S.Now()}
	fr, err := e.S.Snapshot(q, core.FR)
	if err != nil {
		return nil, err
	}
	paRes, err := e.S.Snapshot(q, core.PA)
	if err != nil {
		return nil, err
	}
	exactArea := fr.Region.Area()
	rows := []Fig7Row{{Method: "FR (exact)", Rects: len(fr.Region), Area: exactArea}}
	fp := paRes.Region.DifferenceArea(fr.Region)
	fn := fr.Region.DifferenceArea(paRes.Region)
	row := Fig7Row{Method: "PA (approx)", Rects: len(paRes.Region), Area: paRes.Region.Area()}
	if exactArea > 0 {
		row.RfpPct = 100 * fp / exactArea
		row.RfnPct = 100 * fn / exactArea
	}
	rows = append(rows, row)
	return rows, nil
}

// ---------------------------------------------------------------- Fig 8a/8b

// AccuracyRow is one (l, varrho) accuracy point: PA vs the DH baselines,
// both measured against the exact FR answer.
type AccuracyRow struct {
	L, Varrho float64
	PAfpPct   float64 // PA false-positive ratio, percent
	PAfnPct   float64
	DHOptPct  float64 // optimistic DH false-positive ratio, percent
	DHPessPct float64 // pessimistic DH false-negative ratio, percent
}

// Fig8Accuracy reproduces Figs. 8(a) and 8(b): error ratios of PA and the
// DH baselines as functions of varrho and l. Optimistic DH has r_fn = 0 by
// construction and pessimistic DH has r_fp = 0, so each contributes the one
// ratio the paper plots.
func (r *Runner) Fig8Accuracy() ([]AccuracyRow, error) {
	var rows []AccuracyRow
	for _, l := range r.P.Ls {
		e, err := r.Env(l)
		if err != nil {
			return nil, err
		}
		for _, varrho := range r.P.Varrhos {
			row, err := e.accuracyPoint(varrho, l)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 8c/8d

// MemoryRow is one memory-accuracy trade-off point (Figs. 8c and 8d).
type MemoryRow struct {
	Method   string
	Config   string
	MemoryMB float64
	RfpPct   float64 // optimistic DH / PA false positives
	RfnPct   float64 // pessimistic DH / PA false negatives
}

// Fig8Memory reproduces Figs. 8(c) and 8(d): error ratio against memory
// budget, varying the histogram resolution for DH and the polynomial count
// and degree for PA, at fixed l and varrho=3.
func (r *Runner) Fig8Memory() ([]MemoryRow, error) {
	const varrho = 3
	l := r.P.Ls[len(r.P.Ls)-1]
	truthEnv, err := r.Env(l)
	if err != nil {
		return nil, err
	}
	rho := core.RelativeThreshold(truthEnv.S.NumObjects(), varrho, truthEnv.S.Config().Area)
	times := truthEnv.queryTimes()

	// Exact answers once.
	exact := make(map[motion.Tick]core.Result)
	for _, qt := range times {
		res, err := truthEnv.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, core.FR)
		if err != nil {
			return nil, err
		}
		exact[qt] = *res
	}

	var rows []MemoryRow
	// DH sweep: histogram resolutions (respecting lc <= l/2).
	minM := int(2*1000/l) + 1
	for _, m := range []int{minM, 70, 100, 140, 200} {
		if m < minM {
			continue
		}
		row, err := r.dhMemoryPoint(truthEnv, exact, m, rho, l)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	// PA sweep: polynomial grids and degrees.
	for _, gc := range []struct{ g, k int }{{5, 3}, {10, 3}, {10, 5}, {20, 5}} {
		row, err := r.paMemoryPoint(truthEnv, exact, gc.g, gc.k, rho, l)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// dhMemoryPoint rebuilds a histogram at resolution m over the environment's
// live objects and measures optimistic/pessimistic error.
func (r *Runner) dhMemoryPoint(e *Env, exact map[motion.Tick]core.Result, m int, rho, l float64) (MemoryRow, error) {
	cfg := e.S.Config()
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: m, Horizon: e.S.Horizon()})
	if err != nil {
		return MemoryRow{}, err
	}
	hist.Advance(e.S.Now())
	for _, st := range e.S.LiveStates() {
		hist.Insert(st)
	}
	row := MemoryRow{Method: "DH", Config: fmt.Sprintf("m=%d", m), MemoryMB: float64(hist.MemoryBytes()) / (1 << 20)}
	n := 0
	for qt, ex := range exact {
		fres, err := hist.Filter(qt, rho, l)
		if err != nil {
			return MemoryRow{}, err
		}
		opt := fres.OptimisticRegion()
		pess := fres.PessimisticRegion()
		fres.Release()
		exArea := ex.Region.Area()
		if exArea == 0 {
			continue
		}
		row.RfpPct += 100 * opt.DifferenceArea(ex.Region) / exArea
		row.RfnPct += 100 * ex.Region.DifferenceArea(pess) / exArea
		n++
	}
	if n > 0 {
		row.RfpPct /= float64(n)
		row.RfnPct /= float64(n)
	}
	return row, nil
}

// paMemoryPoint rebuilds PA surfaces with grid g and degree k over the
// environment's live objects and measures both error ratios.
func (r *Runner) paMemoryPoint(e *Env, exact map[motion.Tick]core.Result, g, k int, rho, l float64) (MemoryRow, error) {
	cfg := e.S.Config()
	surf, err := pa.New(pa.Config{Area: cfg.Area, G: g, Degree: k, Horizon: e.S.Horizon(), L: l, MD: cfg.PAMD})
	if err != nil {
		return MemoryRow{}, err
	}
	surf.Advance(e.S.Now())
	for _, st := range e.S.LiveStates() {
		surf.Insert(st)
	}
	row := MemoryRow{Method: "PA", Config: fmt.Sprintf("g=%d k=%d", g, k), MemoryMB: float64(surf.MemoryBytes()) / (1 << 20)}
	n := 0
	for qt, ex := range exact {
		region, err := surf.DenseRegion(qt, rho)
		if err != nil {
			return MemoryRow{}, err
		}
		exArea := ex.Region.Area()
		if exArea == 0 {
			continue
		}
		row.RfpPct += 100 * region.DifferenceArea(ex.Region) / exArea
		row.RfnPct += 100 * ex.Region.DifferenceArea(region) / exArea
		n++
	}
	if n > 0 {
		row.RfpPct /= float64(n)
		row.RfnPct /= float64(n)
	}
	return row, nil
}

// ---------------------------------------------------------------- Fig 9a

// QueryCPURow is one (l, varrho) query-CPU point for PA and DH.
type QueryCPURow struct {
	L, Varrho float64
	PACPU     time.Duration
	DHCPU     time.Duration
}

// Fig9aQueryCPU reproduces Fig. 9(a): query CPU of PA versus DH as varrho
// grows. The DH cost is flat (every cell is classified regardless of the
// threshold) while PA's branch-and-bound prunes better at higher varrho.
func (r *Runner) Fig9aQueryCPU() ([]QueryCPURow, error) {
	var rows []QueryCPURow
	for _, l := range r.P.Ls {
		e, err := r.Env(l)
		if err != nil {
			return nil, err
		}
		for _, varrho := range r.P.Varrhos {
			paAvg, _, err := e.runPoint(varrho, l, core.PA)
			if err != nil {
				return nil, err
			}
			dhAvg, _, err := e.runPoint(varrho, l, core.DHOptimistic)
			if err != nil {
				return nil, err
			}
			rows = append(rows, QueryCPURow{L: l, Varrho: varrho, PACPU: paAvg.CPU, DHCPU: dhAvg.CPU})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 9b

// BuildCPURow reports maintenance cost per location update.
type BuildCPURow struct {
	Method    string
	PerUpdate time.Duration
}

// Fig9bBuildCPU reproduces Fig. 9(b): CPU to maintain the density histogram
// versus the polynomial coefficients per location update. In the paper PA is
// roughly an order of magnitude costlier because it computes arccos/sin per
// overlapped cell and timestamp; cheb.BoxFactors computes neither, and what
// is left is the 21 coefficient increments per cell and timestamp
// (EXPERIMENTS.md, Fig 9(b)).
func (r *Runner) Fig9bBuildCPU() ([]BuildCPURow, error) {
	l := r.P.Ls[len(r.P.Ls)-1]
	cfg := ServerConfig(r.P)
	cfg.L = l
	n := r.P.N
	if n > 20000 {
		n = 20000 // maintenance cost is per update; a modest stream suffices
	}
	gcfg := datagen.DefaultConfig(n)
	gcfg.Seed = r.P.Seed
	g, err := datagen.New(gcfg)
	if err != nil {
		return nil, err
	}
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: cfg.HistM, Horizon: cfg.U + cfg.W})
	if err != nil {
		return nil, err
	}
	surf, err := pa.New(pa.Config{Area: cfg.Area, G: cfg.PAGrid, Degree: cfg.PADegree, Horizon: cfg.U + cfg.W, L: l, MD: cfg.PAMD})
	if err != nil {
		return nil, err
	}
	startTick := g.Now() + 1
	hist.Advance(startTick)
	surf.Advance(startTick)
	// Record a realistic update stream (the structures being measured are
	// fed the same records, so both see identical work).
	var stream []motion.Update
	for len(stream) < 4000 {
		stream = append(stream, g.Advance()...)
	}
	timePer := func(apply func(motion.Update)) time.Duration {
		start := time.Now()
		for _, u := range stream {
			apply(u)
		}
		return time.Since(start) / time.Duration(len(stream))
	}
	return []BuildCPURow{
		{Method: "DH", PerUpdate: timePer(hist.Apply)},
		{Method: "PA", PerUpdate: timePer(surf.Apply)},
	}, nil
}

// ---------------------------------------------------------------- Fig 10a

// QueryCostRow is one (l, varrho) total-cost point for PA and FR.
type QueryCostRow struct {
	L, Varrho float64
	PATotal   time.Duration
	FRTotal   time.Duration
	FRIOs     int64
}

// Fig10aQueryCost reproduces Fig. 10(a): total query cost (CPU plus charged
// I/O) of PA versus exact FR as varrho varies.
func (r *Runner) Fig10aQueryCost() ([]QueryCostRow, error) {
	var rows []QueryCostRow
	for _, l := range r.P.Ls {
		e, err := r.Env(l)
		if err != nil {
			return nil, err
		}
		for _, varrho := range r.P.Varrhos {
			// Cold-ish cache per point for honest I/O counts.
			e.S.DropBufferPools()
			frAvg, _, err := e.runPoint(varrho, l, core.FR)
			if err != nil {
				return nil, err
			}
			paAvg, _, err := e.runPoint(varrho, l, core.PA)
			if err != nil {
				return nil, err
			}
			rows = append(rows, QueryCostRow{
				L: l, Varrho: varrho,
				PATotal: paAvg.Total, FRTotal: frAvg.Total, FRIOs: frAvg.IOs,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 10b

// ScaleRow is one dataset-size point of Fig. 10(b).
type ScaleRow struct {
	N       int
	PATotal time.Duration
	FRTotal time.Duration
}

// Fig10bScalability reproduces Fig. 10(b): query cost versus dataset size
// at l fixed and varrho = 3. FR grows with N; PA stays nearly flat because
// polynomial evaluation depends only on the coefficient count.
func (r *Runner) Fig10bScalability(sizes []int) ([]ScaleRow, error) {
	const varrho = 3
	l := r.P.Ls[0]
	var rows []ScaleRow
	for _, n := range sizes {
		e, err := r.envAt(l, n)
		if err != nil {
			return nil, err
		}
		e.S.DropBufferPools()
		frAvg, _, err := e.runPoint(varrho, l, core.FR)
		if err != nil {
			return nil, err
		}
		paAvg, _, err := e.runPoint(varrho, l, core.PA)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{N: n, PATotal: paAvg.Total, FRTotal: frAvg.Total})
	}
	return rows, nil
}
