package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdr/bench/plan"
)

// warmTicks is how many ticks of the stream go into the preload, so that the
// measured phase starts from a server that has already absorbed updates.
const warmTicks = 8

// setupRuns is how many times a run starts the server: set-up time is the
// median, the last server started is the one measured.
const setupRuns = 3

// runConfig is one run of one workload.
type runConfig struct {
	w    plan.Workload
	seed int64
	// dataSeed is pdrgen's seed: the data set is the database, the same for
	// every run, and seed varies the traffic over it.
	dataSeed int64
	seconds  float64
	n        int  // objects
	trace    bool // traced run: per-layer metrics instead of end-to-end ones
}

// runResult is what one run reports.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Samples is the number of timed samples behind each latency metric.
	Samples map[string]int
	// Notes are the human-readable findings of the checks.
	Notes []string
}

// streamTicks is how many measured ticks the workload can consume in the
// given time; the writer stops early if the stream runs dry.
func streamTicks(w plan.Workload, seconds float64) int {
	var n int
	switch w.Writer {
	case "closed":
		n = int(math.Ceil(seconds*30)) + 10
	case "open":
		n = int(math.Ceil(seconds*1000/plan.TickPeriodMs)) + 10
	default:
		return 0
	}
	return max(n, plan.ProbeTicks)
}

// runWorkload generates the data set, starts a fresh pdrserve, runs the timed
// phase, checks answers against the oracle and stops the server.
func runWorkload(ctx context.Context, t *tools, cfg runConfig) (*runResult, error) {
	name := cfg.w.Name
	wlPath := filepath.Join(t.out, name+".wl.jsonl")
	if err := t.generate(ctx, cfg.n, warmTicks+streamTicks(cfg.w, cfg.seconds), cfg.dataSeed, wlPath); err != nil {
		return nil, fmt.Errorf("pdrgen: %w", err)
	}
	data, err := os.ReadFile(wlPath)
	if err != nil {
		return nil, err
	}
	ds, err := plan.Split(data, warmTicks)
	if err != nil {
		return nil, err
	}
	preload := filepath.Join(t.out, name+".preload.jsonl")
	if err := os.WriteFile(preload, ds.Preload, 0o644); err != nil {
		return nil, err
	}
	world := plan.NewWorld()
	if err := world.ApplyLines(ds.Preload); err != nil {
		return nil, err
	}

	logPath := filepath.Join(t.out, name+".serve.log")
	if err := os.Remove(logPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var srv *server
	var setups []float64
	starts := setupRuns
	if cfg.trace {
		starts = 1 // set-up time is an end-to-end metric
	}
	for i := 0; i < starts; i++ {
		if srv != nil {
			srv.stop()
		}
		if srv, err = t.startServer(ctx, preload, logPath); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer srv.stop()

	res := &runResult{Metrics: map[string]float64{}, Samples: map[string]int{}}
	probe := newClient(srv.base)
	defer probe.close()
	var before stats
	if cfg.trace {
		if before, err = probe.scrape(); err != nil {
			return nil, err
		}
	}

	// The approximation's error is a property of the loaded state: the gated
	// run measures it before the timed phase, on what every run of a seed
	// loads, because after the phase it would follow how many writes the
	// host's speed let through. The traced run measures it after the writes.
	chk := &checkResult{}
	if !cfg.trace {
		if err := chk.run(probe, cfg, world, "pa"); err != nil {
			return nil, err
		}
	}

	seconds := cfg.seconds
	if cfg.trace {
		// The traced run only needs the server's own counters from this
		// phase; the time goes to the layer probe.
		seconds /= 2
	}
	// The memory mark is read after a fixed amount of work (MemoryCycles),
	// or at the end of a phase too short or too slow to get there.
	var rss float64
	var rssErr error
	ph := runPhase(srv.base, cfg, ds, world.Now, seconds, func() { rss, rssErr = srv.peakRSSMB() })
	if rss == 0 && rssErr == nil {
		rss, rssErr = srv.peakRSSMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if err := ph.writeSamples(filepath.Join(t.out, name+".samples.csv")); err != nil {
		return nil, err
	}
	if err := ph.writeWindows(filepath.Join(t.out, name+".windows.csv"), cfg.w.WindowCycles); err != nil {
		return nil, err
	}
	if err := ph.replay(world, ds); err != nil {
		return nil, err
	}
	methods := []string{"fr"}
	if cfg.trace {
		methods = append(methods, "pa")
	}
	if err := chk.run(probe, cfg, world, methods...); err != nil {
		return nil, err
	}
	res.Attempted = len(ph.samples) + chk.queries
	for _, s := range ph.samples {
		if !s.ok {
			res.Failed++
		}
	}
	res.Notes = append(res.Notes, ph.errs...)
	res.Notes = append(res.Notes, chk.notes...)
	res.Correct = res.Failed == 0 && chk.exactMismatch == 0

	prim, sec := ph.latencies(cfg.w.Primary), ph.latencies(cfg.w.Secondary)
	if len(prim) == 0 || len(sec) == 0 {
		return nil, fmt.Errorf("%s: no %s or no %s sample in %.1f s", name, cfg.w.Primary, cfg.w.Secondary, seconds)
	}
	if !cfg.trace {
		res.Metrics["setup_s"] = plan.Median(setups)
		res.Metrics["peak_rss_mb"] = rss
		lat, rate := ph.windows(cfg.w.WindowCycles)
		res.Metrics["primary_p50_ms"] = plan.QuietLow(lat)
		res.Metrics["ops_per_s"] = float64(len(ph.cycles)) * plan.QuietHigh(rate)
		res.Notes = append(res.Notes, fmt.Sprintf("%d windows of %d cycles; over the whole run the %s median is %.4f ms and the clients completed %.4f requests/s",
			len(lat), cfg.w.WindowCycles, cfg.w.Primary, plan.Median(prim), float64(ph.closedOps)/ph.wall.Seconds()))
		res.Metrics["pa_err_ratio"] = chk.paErrRatio
		res.Samples["setup_s"] = len(setups)
		res.Samples["primary_p50_ms"] = len(prim)
		res.Samples["ops_per_s"] = ph.closedOps
		res.Samples["pa_err_ratio"] = chk.paDense
		return res, nil
	}

	after, err := probe.scrape()
	if err != nil {
		return nil, err
	}
	srv.stop() // the layer probe gets the machine to itself
	m := res.Metrics
	m["service.http_requests"] = after.Requests - before.Requests
	m["service.http_non2xx"] = after.Non2xx - before.Non2xx
	m["cache.hits"] = after.CacheHits - before.CacheHits
	m["cache.misses"] = after.CacheMisses - before.CacheMisses
	m["cache.hit_ratio"] = ratio(m["cache.hits"], m["cache.hits"]+m["cache.misses"])
	m["storage.pool_hits"] = after.PoolHits - before.PoolHits
	m["storage.pool_reads"] = after.PoolReads - before.PoolReads
	m["tprtree.pages"] = after.IndexPages
	m["dh.bytes"] = after.HistogramBytes
	m["pa.bytes"] = after.SurfaceBytes
	m["e2e.primary_p50_ms"] = plan.Median(prim)
	m["e2e.primary_p90_ms"] = plan.Percentile(prim, 90)
	m["e2e.secondary_p50_ms"] = plan.Median(sec)
	m["e2e.secondary_p90_ms"] = plan.Percentile(sec, 90)
	m["e2e.tick_p50_ms"] = plan.Median(ph.latencies(plan.ClassTick))
	m["e2e.update_records_per_s"] = float64(ph.records) / ph.wall.Seconds()
	m["gen.lateness_p90_ms"] = plan.Percentile(ph.lateness, 90)
	m["check.exact_mismatch"] = float64(chk.exactMismatch)
	m["check.pa_err_ratio"] = chk.paErrRatio
	m["check.failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	layers, err := runLayers(ctx, t, cfg, wlPath)
	if err != nil {
		return nil, err
	}
	for k, v := range layers.Metrics {
		m[k] = v
	}
	res.Notes = append(res.Notes, layers.Notes...)
	res.Correct = res.Correct && layers.Correct
	return res, nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// runLayers builds and runs the traced layer probe over the same generated
// file and the same op lists.
func runLayers(ctx context.Context, t *tools, cfg runConfig, wlPath string) (*plan.LayerReport, error) {
	bin, err := t.buildLayers(ctx)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin,
		"-data", wlPath, "-warm", strconv.Itoa(warmTicks), "-workload", cfg.w.Name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-n", strconv.Itoa(cfg.n),
		"-trace-out", filepath.Join(t.out, cfg.w.Name+".trace.jsonl"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench/layers: %w", err)
	}
	var rep plan.LayerReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("bench/layers output: %w", err)
	}
	return &rep, nil
}

// phase is the timed part of a run.
type phase struct {
	samples   []sample
	wall      time.Duration // start to the last closed-loop completion
	closedOps int           // closed-loop requests answered
	cycles    [][]cycle     // per closed-loop client, its completed cycles in order
	records   int           // update records acknowledged
	lateness  []float64     // open loop: how late each request left, ms
	journal   []write       // every write acknowledged, in order
	errs      []string
}

// cycle is one completed cycle of a closed-loop client: when it ran, counted
// from the start of the phase, how many requests it completed and what its
// requests of the workload's primary class took.
type cycle struct {
	start, end time.Duration
	ops        int
	primary    []float64
}

// windows cuts every client's cycles into windows of g consecutive cycles (a
// client's last, incomplete window is dropped unless it is its only one) and
// returns each window's median primary latency in ms and its request rate in
// 1/s: the inputs of the quiet statistics.
func (p *phase) windows(g int) (lat, rate []float64) {
	for _, cs := range p.cycles {
		for first := true; len(cs) > 0; first = false {
			w := cs[:min(g, len(cs))]
			cs = cs[len(w):]
			if len(w) < g && !first {
				break
			}
			var prim []float64
			ops := 0
			for _, c := range w {
				prim = append(prim, c.primary...)
				ops += c.ops
			}
			lat = append(lat, plan.Median(prim))
			rate = append(rate, float64(ops)/(w[len(w)-1].end-w[0].start).Seconds())
		}
	}
	return lat, rate
}

// write is one acknowledged mutation: a tick of the stream or an apply.
type write struct {
	tick int // index into the stream, -1 for an apply
	recs []plan.Record
}

func (p *phase) latencies(class string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// writeSamples stores every timed sample, exactly as measured, for whoever
// wants a statistic the harness does not print.
func (p *phase) writeSamples(path string) error {
	var b strings.Builder
	b.WriteString("class,l,varrho,at_offset,ms,ok\n")
	for _, s := range p.samples {
		fmt.Fprintf(&b, "%s,%g,%g,%d,%.4f,%v\n", s.class, s.op.L, s.op.Varrho, s.op.AtOff, s.ms, s.ok)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeWindows stores what the quiet statistics are taken over: a run whose
// windows differ widely was disturbed.
func (p *phase) writeWindows(path string, g int) error {
	lat, rate := p.windows(g)
	var b strings.Builder
	b.WriteString("window,primary_p50_ms,ops_per_s\n")
	for i := range lat {
		fmt.Fprintf(&b, "%d,%.4f,%.4f\n", i, lat[i], rate[i])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// replay brings the harness's world up to what the server acknowledged.
func (p *phase) replay(w *plan.World, ds *plan.Dataset) error {
	for _, wr := range p.journal {
		if wr.tick >= 0 {
			if err := w.ApplyTick(ds.Ticks[wr.tick]); err != nil {
				return err
			}
			continue
		}
		for _, r := range wr.recs {
			if err := w.Apply(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPhase drives the workload's clients for the given time. Load comes from
// this one process over at most two connections; every goroutine started
// here is joined before it returns. memory is called once, by the first
// closed-loop client when it has completed the workload's MemoryCycles.
func runPhase(base string, cfg runConfig, ds *plan.Dataset, now int64, seconds float64, memory func()) *phase {
	p := &phase{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex // guards p while clients merge their results
	var readers, writer sync.WaitGroup
	readersDone := make(chan struct{})

	for c := 0; c < cfg.w.Readers; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			cl := newClient(base)
			defer cl.close()
			var mine []sample
			var cycles []cycle
			var errs []string
			// Cycles are dealt round-robin to the clients and always
			// finished, so every class keeps its share of the samples.
			for i := c; time.Now().Before(deadline); i += cfg.w.Readers {
				cy := cycle{start: time.Since(start)}
				for _, op := range cfg.w.ReaderCycle(cfg.seed, c, i) {
					s, err := cl.query(op, cfg.n)
					if err != nil {
						errs = append(errs, err.Error())
					}
					mine = append(mine, s)
					cy.ops++
					if s.class == cfg.w.Primary {
						cy.primary = append(cy.primary, s.ms)
					}
				}
				cy.end = time.Since(start)
				cycles = append(cycles, cy)
				if c == 0 && len(cycles) == cfg.w.MemoryCycles {
					memory()
				}
			}
			end := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			p.samples = append(p.samples, mine...)
			p.closedOps += len(mine)
			p.cycles = append(p.cycles, cycles)
			p.errs = append(p.errs, errs...)
			if end > p.wall {
				p.wall = end
			}
		}(c)
	}

	if cfg.w.Writer != "" {
		writer.Add(1)
		go func() {
			defer writer.Done()
			cl := newClient(base)
			defer cl.close()
			wr := &writerState{cl: cl, ds: ds, seed: cfg.seed, now: now, primary: cfg.w.Primary}
			if cfg.w.Writer == "closed" {
				wr.closedLoop(start, deadline, cfg.w.MemoryCycles, memory)
			} else {
				wr.openLoop(start, readersDone)
			}
			end := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			p.samples = append(p.samples, wr.samples...)
			p.journal = wr.journal
			p.records = wr.records
			p.lateness = wr.lateness
			p.errs = append(p.errs, wr.errs...)
			if cfg.w.Writer == "closed" {
				p.closedOps += len(wr.samples)
				p.cycles = append(p.cycles, wr.cycles)
				if end > p.wall {
					p.wall = end
				}
			}
		}()
	}
	readers.Wait()
	close(readersDone)
	writer.Wait()
	return p
}

// writerState is the single writer connection: it owns the stream position,
// the clock it last sent and the fresh objects it has in flight.
type writerState struct {
	cl   *client
	ds   *plan.Dataset
	seed int64
	now  int64
	// primary is the workload's primary class, whose latencies the cycles keep.
	primary string
	next    int // next tick of the stream
	k       int // fresh objects inserted so far
	// inFlight are the fresh objects not yet deleted, oldest first.
	inFlight []plan.Record

	samples  []sample
	cycles   []cycle // closed loop only
	journal  []write
	records  int
	lateness []float64
	errs     []string
	broken   bool // a write failed: the world no longer matches the server
}

// tick posts the next tick of the stream, timed from `from`.
func (w *writerState) tick(from time.Time) {
	b := w.ds.Ticks[w.next]
	s, err := w.cl.timed(plan.ClassTick, http.MethodPost, "/v1/updates", b.Body(), from)
	w.samples = append(w.samples, s)
	if err != nil {
		w.errs = append(w.errs, err.Error())
		w.broken = true
		return
	}
	w.journal = append(w.journal, write{tick: w.next})
	w.records += len(b.Lines)
	w.now = b.Now
	w.next++
}

// apply inserts one fresh object and deletes the one inserted FreshLag
// applies earlier, in one request, timed from `from`.
func (w *writerState) apply(from time.Time) {
	ins := plan.FreshObject(w.seed, w.k)
	ins.Tick, ins.Ref = w.now, w.now
	recs := []plan.Record{ins}
	if len(w.inFlight) >= plan.FreshLag {
		del := w.inFlight[0]
		del.Kind, del.Tick = plan.KindDelete, w.now
		recs = append(recs, del)
	}
	body, err := applyBody(recs)
	if err == nil {
		var s sample
		s, err = w.cl.timed(plan.ClassApply, http.MethodPost, "/v1/apply", body, from)
		w.samples = append(w.samples, s)
	}
	if err != nil {
		w.errs = append(w.errs, err.Error())
		w.broken = true
		return
	}
	w.k++
	w.inFlight = append(w.inFlight, ins)
	if len(recs) == 2 {
		w.inFlight = w.inFlight[1:]
	}
	w.journal = append(w.journal, write{tick: -1, recs: recs})
	w.records += len(recs)
}

// closedLoop sends whole cycles (a tick, then AppliesPerTick applies), each
// request as soon as the previous one is answered, until the deadline passes
// or the stream runs dry.
func (w *writerState) closedLoop(start, deadline time.Time, memoryCycles int, memory func()) {
	for time.Now().Before(deadline) && w.next < len(w.ds.Ticks) && !w.broken {
		cy := cycle{start: time.Since(start)}
		sent := len(w.samples)
		w.tick(time.Now())
		for a := 0; a < plan.AppliesPerTick && !w.broken; a++ {
			w.apply(time.Now())
		}
		cy.ops, cy.end = len(w.samples)-sent, time.Since(start)
		for _, s := range w.samples[sent:] {
			if s.class == w.primary {
				cy.primary = append(cy.primary, s.ms)
			}
		}
		w.cycles = append(w.cycles, cy)
		if len(w.cycles) == memoryCycles {
			memory()
		}
	}
}

// openLoop sends on the fixed schedule — slot k is due k*ApplyPeriodMs after
// the start, a tick on every slot that starts a TickPeriodMs, an apply on the
// others — and times each request from when it was due, so a stall shows in
// every request queued behind it. It runs until the reader has finished and
// the current tick period is complete.
func (w *writerState) openLoop(start time.Time, readersDone <-chan struct{}) {
	perTick := plan.TickPeriodMs / plan.ApplyPeriodMs
	for slot := 0; !w.broken; slot++ {
		isTick := slot%perTick == 0
		if isTick {
			select {
			case <-readersDone:
				return
			default:
			}
			if w.next >= len(w.ds.Ticks) {
				return
			}
		}
		due := start.Add(time.Duration(slot*plan.ApplyPeriodMs) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lateness = append(w.lateness, float64(time.Since(due))/float64(time.Millisecond))
		if isTick {
			w.tick(due)
		} else {
			w.apply(due)
		}
	}
}

// checkResult is the outcome of the check queries.
type checkResult struct {
	queries       int
	exactMismatch int     // sample points where an FR answer and the oracle disagree
	paErrRatio    float64 // (false positives + false negatives) / truly dense
	paWrong       int     // false positives + false negatives of the PA answers
	paDense       int     // truly dense sample points behind paErrRatio
	notes         []string
}

// run asks the check queries of the given methods at absolute timestamps,
// with no writer running, and compares each answer with the oracle at seeded
// sample points.
func (res *checkResult) run(c *client, cfg runConfig, world *plan.World, methods ...string) error {
	for _, method := range methods {
		for k, op := range plan.Checks(cfg.seed, method) {
			rects, err := c.ask(op, cfg.n, world.Now)
			if err != nil {
				return fmt.Errorf("check query: %w", err)
			}
			res.queries++
			objects := world.PositionsAt(world.Now + int64(op.AtOff))
			points := plan.CheckPoints(cfg.seed, k, objects, op.L)
			v := plan.CheckAnswer(objects, rects, points, plan.Rho(cfg.n, op.Varrho), op.L)
			if method == "fr" {
				res.exactMismatch += v.Mismatch()
				if v.Mismatch() > 0 {
					res.notes = append(res.notes, fmt.Sprintf("FR l=%g varrho=%g at=now+%d: %d of %d sample points disagree with the oracle (%d false positive, %d false negative)",
						op.L, op.Varrho, op.AtOff, v.Mismatch(), v.Points, v.FalsePositive, v.FalseNegative))
				}
			} else {
				res.paWrong += v.Mismatch()
				res.paDense += v.TrulyDense
			}
		}
	}
	res.paErrRatio = ratio(float64(res.paWrong), float64(res.paDense))
	return nil
}
