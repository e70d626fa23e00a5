// Package experiments regenerates every table and figure of the PDR paper's
// evaluation (Sec. 7). Each experiment is a function returning typed rows;
// cmd/pdrbench and the repository-root benchmarks print them. Absolute
// numbers depend on the host; the reproduction targets are the paper's
// shapes: who wins, by roughly what factor, and where behaviour crosses
// over (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"time"

	"pdr/internal/accuracy"
	"pdr/internal/core"
	"pdr/internal/datagen"
	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Params scales an experiment run. The zero value is not valid; use
// DefaultParams (paper-like, minutes of runtime) or TestParams (seconds).
type Params struct {
	// N is the object count (the paper's CH10K/CH100K/CH500K vary this).
	N int
	// WarmTicks advances the world before measuring so the update
	// structures are in steady state.
	WarmTicks int
	// QueriesPerPoint is the query workload size per parameter setting;
	// results are averaged.
	QueriesPerPoint int
	// Seed drives workload generation.
	Seed int64
	// Varrhos are the relative density thresholds (paper: 1..5).
	Varrhos []float64
	// Ls are the neighborhood edges (paper: 30, 60).
	Ls []float64
}

// DefaultParams returns a paper-like configuration scaled to a single-core
// container (CH100K analogue).
func DefaultParams() Params {
	return Params{
		N:               100000,
		WarmTicks:       20,
		QueriesPerPoint: 5,
		Seed:            1,
		Varrhos:         []float64{1, 2, 3, 4, 5},
		Ls:              []float64{30, 60},
	}
}

// TestParams returns a configuration small enough for unit tests and
// go test -bench runs.
func TestParams() Params {
	return Params{
		N:               8000,
		WarmTicks:       5,
		QueriesPerPoint: 2,
		Seed:            1,
		Varrhos:         []float64{1, 3, 5},
		Ls:              []float64{60},
	}
}

// Env is a loaded server plus its workload generator.
type Env struct {
	S *core.Server
	G *datagen.Generator
	P Params
}

// ServerConfig returns the default server configuration used by the
// experiments; l=60 surfaces so both FR and PA can answer l=60 queries, and
// a histogram fine enough for l=30 FR queries.
func ServerConfig(p Params) core.Config {
	cfg := core.DefaultConfig()
	cfg.L = 60
	cfg.HistM = 100 // lc=10: supports l >= 20
	return cfg
}

// Build creates a server over a fresh workload and warms it with update
// traffic.
func Build(p Params, cfg core.Config) (*Env, error) {
	gcfg := datagen.DefaultConfig(p.N)
	gcfg.Seed = p.Seed
	g, err := datagen.New(gcfg)
	if err != nil {
		return nil, err
	}
	s, err := core.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Load(g.InitialStates()); err != nil {
		return nil, err
	}
	for i := 0; i < p.WarmTicks; i++ {
		ups := g.Advance()
		if err := s.Tick(g.Now(), ups); err != nil {
			return nil, err
		}
	}
	return &Env{S: s, G: g, P: p}, nil
}

// queryTimes returns the deterministic query timestamps for one parameter
// point: spread over the prediction window [now, now+W].
func (e *Env) queryTimes() []motion.Tick {
	now := e.S.Now()
	w := e.S.Config().W
	out := make([]motion.Tick, e.P.QueriesPerPoint)
	for i := range out {
		out[i] = now + motion.Tick(int64(i)*int64(w)/int64(len(out)+1))
	}
	return out
}

// runPoint runs the query workload for one (varrho, l) point with one
// method and returns the averaged result plus the answers.
func (e *Env) runPoint(varrho, l float64, m core.Method) (avg ResultAvg, regions []geom.Region, err error) {
	rho := core.RelativeThreshold(e.S.NumObjects(), varrho, e.S.Config().Area)
	times := e.queryTimes()
	for _, qt := range times {
		r, err := e.S.Snapshot(core.Query{Rho: rho, L: l, At: qt}, m)
		if err != nil {
			return ResultAvg{}, nil, err
		}
		avg.CPU += r.CPU
		avg.IOs += r.IOs
		avg.Total += r.Total()
		avg.Candidates += r.Candidates
		avg.Objects += r.ObjectsRetrieved
		regions = append(regions, r.Region)
	}
	n := time.Duration(len(times))
	avg.CPU /= n
	avg.Total /= n
	avg.IOs /= int64(len(times))
	avg.Candidates /= len(times)
	avg.Objects /= len(times)
	return avg, regions, nil
}

// ResultAvg is a per-query average of costs.
type ResultAvg struct {
	CPU        time.Duration
	Total      time.Duration
	IOs        int64
	Candidates int
	Objects    int
}

// accuracyPoint measures PA and the DH baselines against one shared exact
// FR answer per query, for one (varrho, l) parameter point.
func (e *Env) accuracyPoint(varrho, l float64) (AccuracyRow, error) {
	rho := core.RelativeThreshold(e.S.NumObjects(), varrho, e.S.Config().Area)
	times := e.queryTimes()
	row := AccuracyRow{L: l, Varrho: varrho}
	for _, qt := range times {
		q := core.Query{Rho: rho, L: l, At: qt}
		exact, err := e.S.Snapshot(q, core.FR)
		if err != nil {
			return row, err
		}
		measure := func(m core.Method) (float64, float64, error) {
			res, err := e.S.Snapshot(q, m)
			if err != nil {
				return 0, 0, err
			}
			fp, fn := accuracy.Ratios(exact.Region, res.Region)
			return fp, fn, nil
		}
		paFP, paFN, err := measure(core.PA)
		if err != nil {
			return row, err
		}
		optFP, _, err := measure(core.DHOptimistic)
		if err != nil {
			return row, err
		}
		_, pessFN, err := measure(core.DHPessimistic)
		if err != nil {
			return row, err
		}
		row.PAfpPct += 100 * paFP
		row.PAfnPct += 100 * paFN
		row.DHOptPct += 100 * optFP
		row.DHPessPct += 100 * pessFN
	}
	n := float64(len(times))
	row.PAfpPct /= n
	row.PAfnPct /= n
	row.DHOptPct /= n
	row.DHPessPct /= n
	return row, nil
}

// fmtDur renders a duration with ms precision for tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}
