// Command layers is the benchmark's traced run: it replays a workload's own
// op list in process, over the same generated file the end-to-end harness
// uses, and times every layer a request crosses from outside the layer's
// public functions. Each call is a span {op, name, parent, start_ns, end_ns}
// kept in memory and written out at the end; a layer's self time is its span
// minus its children.
//
// Beside the engine (core.Server, the sharded engine, and the service through
// httptest) it runs a shadow pipeline built only from standalone layer
// instances, and checks two invariants per probed operation: the shadow
// answers exactly what the engine answers, and the layers' times add up to
// the engine call (the gap is itself a metric).
//
// It is a program of its own so that the end-to-end harness never imports the
// product's internal packages. The harness runs it; by hand:
//
//	go run -C bench ./layers -data out/exact-read.wl.jsonl -workload exact-read
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"pdr/bench/plan"
	"pdr/internal/cache"
	"pdr/internal/cheb"
	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/service"
	"pdr/internal/shard"
	"pdr/internal/wire"
)

// Probe sizes: how many operations of each kind are replayed. Medians are
// reported.
const (
	frSnapshots = 7
	paSnapshots = 36
	shards      = 4
)

// unattributedLimit is how much of an engine call the layers' spans may leave
// unexplained before the probe says so in a note.
const unattributedLimit = 0.15

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		dataPath = flag.String("data", "", "pdrgen output to replay (required)")
		warm     = flag.Int("warm", 20, "ticks of the stream that belong to the preload")
		workload = flag.String("workload", "exact-read", "workload whose op list is probed")
		seed     = flag.Int64("seed", 1, "seed of the op list")
		n        = flag.Int("n", 20000, "objects in the data set (scales the density threshold)")
		traceOut = flag.String("trace-out", "", "write the spans here as JSON lines")
	)
	flag.Parse()
	w, err := plan.Find(*workload)
	if err == nil && *dataPath == "" {
		err = fmt.Errorf("-data is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 2
	}
	p := &probe{w: w, seed: *seed, n: *n, tr: newTracer(), series: map[string][]float64{}, metrics: map[string]float64{}}
	if err := p.run(*dataPath, *warm); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	if *traceOut != "" {
		if err := p.tr.write(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", err)
			return 1
		}
	}
	out, err := json.Marshal(plan.LayerReport{Correct: p.mismatch == 0, Metrics: p.metrics, Notes: p.notes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// probe holds the engines under measurement and what has been measured.
type probe struct {
	w    plan.Workload
	seed int64
	n    int
	tr   *tracer
	ops  int // operations probed so far; the next op id

	now     motion.Tick
	eng     *core.Server  // the engine as pdrserve configures it
	seq     *core.Server  // the same with Workers=1, for exact reads
	sharded *shard.Engine // shard.New(cfg, 4)
	sh      *shadow
	svc     *service.Service // over eng, tracing at its default
	plain   *service.Service // over eng, tracing off

	// series collects one value per probed operation under a metric name;
	// the metric is their median.
	series   map[string][]float64
	metrics  map[string]float64
	mismatch int
	notes    []string
}

func (p *probe) add(name string, v float64) { p.series[name] = append(p.series[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeIt returns how long fn took, in microseconds.
func timeIt(fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	return us(time.Since(t)), err
}

func (p *probe) run(dataPath string, warm int) error {
	data, err := os.ReadFile(dataPath)
	if err != nil {
		return err
	}
	ds, err := plan.Split(data, warm)
	if err != nil {
		return err
	}
	states, ticks, err := p.decode(ds.Preload)
	if err != nil {
		return err
	}
	if err := p.load(states, ticks); err != nil {
		return err
	}
	if p.w.Readers > 0 {
		if err := p.reads(); err != nil {
			return err
		}
	}
	if p.w.Writer != "" {
		if err := p.writes(ds); err != nil {
			return err
		}
	}
	if err := p.micro(); err != nil {
		return err
	}
	p.finish()
	return nil
}

// tickUpdates is one tick of decoded updates.
type tickUpdates struct {
	now motion.Tick
	ups []motion.Update
}

// decode parses the preload the way pdrserve's replay does, timing the wire
// layer per record.
func (p *probe) decode(preload []byte) ([]motion.State, []tickUpdates, error) {
	var states []motion.State
	var ticks []tickUpdates
	records := 0
	begin := time.Now()
	for _, line := range bytes.Split(preload, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec wire.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, err
		}
		records++
		switch rec.Kind {
		case wire.KindState:
			states = append(states, rec.State())
		case wire.KindTick:
			ticks = append(ticks, tickUpdates{now: motion.Tick(rec.Tick)})
		default:
			u, err := rec.Update()
			if err != nil {
				return nil, nil, err
			}
			if len(ticks) == 0 {
				return nil, nil, fmt.Errorf("update before the first tick line")
			}
			last := &ticks[len(ticks)-1]
			last.ups = append(last.ups, u)
		}
	}
	p.metrics["wire.decode_us_per_record"] = us(time.Since(begin)) / float64(records)
	return states, ticks, nil
}

// load builds every engine the workload needs and brings each to the state
// pdrserve is in after its preload.
func (p *probe) load(states []motion.State, ticks []tickUpdates) error {
	cfg := core.DefaultConfig()
	cfg.KeepHistory = true // as cmd/pdrserve sets it
	var err error
	if p.eng, err = core.NewServer(cfg); err != nil {
		return err
	}
	p.metrics["parallel.workers"] = float64(p.eng.Workers())
	op := p.nextOp()
	sp := p.tr.begin(op, "load", "core.load", 0)
	err = p.eng.Load(states)
	p.tr.end(sp)
	if err != nil {
		return err
	}
	p.metrics["core.load_us"] = p.spanUS(sp)

	if p.sh, err = newShadow(cfg); err != nil {
		return err
	}
	op = p.nextOp()
	if err := p.sh.load(p.tr, op, "load", states); err != nil {
		return err
	}
	self := p.tr.selfTimes(op)
	p.metrics["pa.load_us"] = self[spanPAUpdate]
	p.metrics["tprtree.bulkload_us"] = self[spanTPRBulk]

	engines := []interface {
		Load([]motion.State) error
		Tick(motion.Tick, []motion.Update) error
	}{}
	if p.w.Reads == "fr" {
		seqCfg := cfg
		seqCfg.Workers = 1
		seqCfg.DisablePA = true // it answers exact queries only
		if p.seq, err = core.NewServer(seqCfg); err != nil {
			return err
		}
		engines = append(engines, p.seq)
	}
	if p.sharded, err = shard.New(cfg, shards); err != nil {
		return err
	}
	engines = append(engines, p.sharded)
	for _, e := range engines {
		if err := e.Load(states); err != nil {
			return err
		}
	}
	for _, t := range ticks {
		if err := p.eng.Tick(t.now, t.ups); err != nil {
			return err
		}
		if err := p.sh.tick(nil, 0, "", t.now, t.ups); err != nil {
			return err
		}
		for _, e := range engines {
			if err := e.Tick(t.now, t.ups); err != nil {
				return err
			}
		}
		p.now = t.now
	}
	if p.svc, err = service.NewWithEngine(p.eng); err != nil {
		return err
	}
	p.plain, err = service.NewWithEngine(p.eng, service.WithTracing(0, 0))
	return err
}

func (p *probe) nextOp() int {
	p.ops++
	return p.ops
}

// spanUS is a finished span's duration in microseconds.
func (p *probe) spanUS(id int) float64 {
	s := p.tr.spans[id-1]
	return float64(s.EndNS-s.StartNS) / 1e3
}

// readOps takes the workload's first client's op list: the first snapshots
// up to the probe size, and the first interval if the workload asks any.
func (p *probe) readOps() []plan.Op {
	want, class := frSnapshots, plan.ClassFRSnapshot
	if p.w.Reads == "pa" {
		want, class = paSnapshots, plan.ClassPASnapshot
	}
	intervals := 0
	if p.w.Writer == "" {
		intervals = 1
	}
	var ops []plan.Op
	for i := 0; want > 0 || intervals > 0; i++ {
		for _, op := range p.w.ReaderCycle(p.seed, 0, i) {
			switch {
			case op.Class == class && want > 0:
				want--
			case op.Class != class && intervals > 0:
				intervals--
			default:
				continue
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// reads probes the workload's queries on every engine.
func (p *probe) reads() error {
	var shadowOn, shadowOff float64
	for _, op := range p.readOps() {
		id := p.nextOp()
		q := core.Query{Rho: plan.Rho(p.n, op.Varrho), L: op.L, At: p.now + motion.Tick(op.AtOff)}
		until := q.At + motion.Tick(op.Span)
		m := core.FR
		if op.Method == "pa" {
			m = core.PA
		}
		ask := func(e interface {
			Snapshot(core.Query, core.Method) (*core.Result, error)
			Interval(core.Query, motion.Tick, core.Method) (*core.Result, error)
		}) (*core.Result, float64, error) {
			var res *core.Result
			d, err := timeIt(func() (err error) {
				if op.Span > 0 {
					res, err = e.Interval(q, until, m)
				} else {
					res, err = e.Snapshot(q, m)
				}
				return err
			})
			return res, d, err
		}

		sp := p.tr.begin(id, op.Class, "core.query", 0)
		want, engUS, err := ask(p.eng)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		p.add("core."+metricOf(op.Class)+"_us", engUS)

		t := time.Now()
		got, counts, err := p.sh.query(p.tr, id, op.Class, q, until, m)
		if err != nil {
			return err
		}
		on := us(time.Since(t))
		p.check(op, "shadow pipeline", got, want.Region)
		if op.Span == 0 {
			// The same call with recording off: what recording costs.
			t = time.Now()
			if _, _, err := p.sh.query(nil, 0, "", q, until, m); err != nil {
				return err
			}
			shadowOff += us(time.Since(t))
			shadowOn += on
		}

		self := p.tr.selfTimes(id)
		switch op.Class {
		case plan.ClassFRSnapshot:
			seqRes, seqUS, err := ask(p.seq)
			if err != nil {
				return err
			}
			p.check(op, "engine at Workers=1", seqRes.Region, want.Region)
			p.add("seq.snapshot_fr_us", seqUS)
			layers := self[spanDHFilter] + self[spanTPRSearch] + self[spanSweep] + self[spanUnion]
			p.add("layers.snapshot_fr_us", layers)
			p.add("core.fr_self_us", self[spanShadowRoot])
			p.add("dh.filter_us", self[spanDHFilter])
			p.add("dh.candidates", float64(counts.candidates))
			p.add("dh.accepted", float64(counts.accepted))
			p.add("tprtree.search_us", self[spanTPRSearch])
			p.add("tprtree.objects_retrieved", float64(counts.retrieved))
			p.add("tprtree.retrieval_amplification", float64(counts.retrieved)/float64(p.n))
			p.add("sweep.dense_rects_us", self[spanSweep])
			p.add("sweep.windows", float64(counts.windows))
			if counts.windows > 0 {
				p.add("sweep.points_per_window", float64(counts.retrieved)/float64(counts.windows))
			}
			p.add("sweep.rects_out", float64(counts.sweepOut))
			p.add("geom.union_us", self[spanUnion])
			p.add("geom.rects_in", float64(counts.unionIn))
			p.add("geom.rects_out", float64(counts.unionOut))
		case plan.ClassPASnapshot:
			p.add("pa.dense_region_us", self[spanPARegion])
			p.add("pa.rects_out", float64(len(got)))
		}

		shardRes, shardUS, err := ask(p.sharded)
		if err != nil {
			return err
		}
		p.check(op, "sharded engine", shardRes.Region, want.Region)
		if op.Class == plan.ClassFRSnapshot {
			p.add("shard.snapshot_fr_us", shardUS)
		}

		if err := p.serve(op, want.Region); err != nil {
			return err
		}
	}
	if shadowOff > 0 {
		p.metrics["trace.overhead_ratio"] = shadowOn/shadowOff - 1
	}
	return nil
}

// metricOf maps a query class to the stem of its core metric.
func metricOf(class string) string {
	switch class {
	case plan.ClassFRSnapshot:
		return "snapshot_fr"
	case plan.ClassFRInterval:
		return "interval_fr"
	case plan.ClassPASnapshot:
		return "snapshot_pa"
	default:
		return "interval_pa"
	}
}

// check records whether an answer equals the engine's bit for bit.
func (p *probe) check(op plan.Op, who string, got, want geom.Region) {
	if sameRegion(got, want) {
		return
	}
	p.mismatch++
	p.notes = append(p.notes, fmt.Sprintf("%s disagrees with the engine on %s l=%g varrho=%g at=now+%d: %d rectangles against %d",
		who, op.Class, op.L, op.Varrho, op.AtOff, len(got), len(want)))
}

// serve sends the query through the service's HTTP handler, with tracing at
// its default and with tracing off. The reply carries the engine's own
// wall time, so the service's share is the handler time minus that, taken
// within one request.
func (p *probe) serve(op plan.Op, want geom.Region) error {
	target := "/v1/query?" + op.Query(p.n, int64(p.now))
	call := func(h http.Handler) (float64, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		return us(time.Since(t)), rec
	}
	traced, rec := call(p.svc)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	var resp service.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	got := make(geom.Region, len(resp.Rects))
	for i, r := range resp.Rects {
		got[i] = geom.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
	p.check(op, "service reply", got, want)
	p.add("service.query_overhead_us", traced-float64(resp.WallMicros))
	p.add("service.json_bytes", float64(rec.Body.Len()))
	var buf bytes.Buffer
	enc, err := timeIt(func() error { return json.NewEncoder(&buf).Encode(resp) })
	if err != nil {
		return err
	}
	p.add("service.json_encode_us", enc)
	plain, rec := call(p.plain)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s (tracing off): status %d", target, rec.Code)
	}
	p.add("service.trace_overhead_us", traced-plain)
	return nil
}

// writes probes ticks and applies: every engine advances in lockstep through
// the measured stream, each tick followed by the writer's applies.
func (p *probe) writes(ds *plan.Dataset) error {
	if len(ds.Ticks) < plan.ProbeTicks {
		return fmt.Errorf("stream has %d ticks after the preload, the probe needs %d", len(ds.Ticks), plan.ProbeTicks)
	}
	type engine interface {
		Tick(motion.Tick, []motion.Update) error
		Apply(motion.Update) error
	}
	others := []engine{p.sharded}
	if p.seq != nil {
		others = append(others, p.seq)
	}
	var inFlight []motion.State
	fresh := 0
	for _, b := range ds.Ticks[:plan.ProbeTicks] {
		body := b.Body()
		var ups []motion.Update
		dec, err := timeIt(func() error {
			var req service.UpdatesRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				return err
			}
			ups = make([]motion.Update, len(req.Updates))
			for i, rec := range req.Updates {
				u, err := rec.Update()
				if err != nil {
					return err
				}
				ups[i] = u
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.add("service.updates_decode_us", dec)
		now := motion.Tick(b.Now)

		id := p.nextOp()
		sp := p.tr.begin(id, plan.ClassTick, "core.tick", 0)
		err = p.eng.Tick(now, ups)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		p.add("core.tick_us", p.spanUS(sp))
		if err := p.sh.tick(p.tr, id, plan.ClassTick, now, ups); err != nil {
			return err
		}
		self := p.tr.selfTimes(id)
		p.add("dh.update_us", self[spanDHUpdate])
		p.add("pa.update_us", self[spanPAUpdate])
		p.add("tprtree.update_us", self[spanTPRUpdate])
		p.add("layers.tick_us", self[spanDHUpdate]+self[spanPAUpdate]+self[spanTPRUpdate])
		d, err := timeIt(func() error { return p.sharded.Tick(now, ups) })
		if err != nil {
			return err
		}
		p.add("shard.tick_us", d)
		if p.seq != nil {
			if err := p.seq.Tick(now, ups); err != nil {
				return err
			}
		}
		p.now = now

		for a := 0; a < plan.AppliesPerTick; a++ {
			rec := plan.FreshObject(p.seed, fresh)
			fresh++
			st := motion.State{ID: motion.ObjectID(rec.ID), Pos: geom.Point{X: rec.X, Y: rec.Y}, Vel: geom.Vec{X: rec.VX, Y: rec.VY}, Ref: now}
			ups := []motion.Update{motion.NewInsert(st)}
			inFlight = append(inFlight, st)
			if len(inFlight) > plan.FreshLag {
				ups = append(ups, motion.NewDelete(inFlight[0], now))
				inFlight = inFlight[1:]
			}
			id := p.nextOp()
			sp := p.tr.begin(id, plan.ClassApply, "core.apply", 0)
			for _, u := range ups {
				if err = p.eng.Apply(u); err != nil {
					break
				}
			}
			p.tr.end(sp)
			if err != nil {
				return err
			}
			p.add("core.apply_us", p.spanUS(sp))
			if err := p.sh.apply(p.tr, id, plan.ClassApply, ups); err != nil {
				return err
			}
			for i, e := range others {
				d, err := timeIt(func() error {
					for _, u := range ups {
						if err := e.Apply(u); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				if i == 0 {
					p.add("shard.apply_us", d)
				}
			}
		}
	}
	// The invariant after writes: every engine still answers the same.
	for _, op := range []plan.Op{
		{Class: plan.ClassFRSnapshot, Method: "fr", L: 60, Varrho: 3, AtOff: 7},
		{Class: plan.ClassPASnapshot, Method: "pa", L: 30, Varrho: 3, AtOff: 7},
	} {
		q := core.Query{Rho: plan.Rho(p.n, op.Varrho), L: op.L, At: p.now + motion.Tick(op.AtOff)}
		m := core.FR
		if op.Method == "pa" {
			m = core.PA
		}
		want, err := p.eng.Snapshot(q, m)
		if err != nil {
			return err
		}
		got, _, err := p.sh.query(nil, 0, "", q, q.At, m)
		if err != nil {
			return err
		}
		p.check(op, "shadow pipeline after the writes", got, want.Region)
		res, err := p.sharded.Snapshot(q, m)
		if err != nil {
			return err
		}
		p.check(op, "sharded engine after the writes", res.Region, want.Region)
	}
	return nil
}

// micro times the two leaf layers no span can reach from outside — the
// Chebyshev kernels under pa, and the result cache that is off by default —
// on their own public functions.
func (p *probe) micro() error {
	const calls = 20000
	series, err := cheb.NewSeries2D(core.DefaultConfig().PADegree)
	if err != nil {
		return err
	}
	box := func(i int) (x1, y1, x2, y2 float64) {
		x1 = -1 + 1.6*float64(i%97)/97
		y1 = -1 + 1.6*float64(i%89)/89
		return x1, y1, x1 + 0.4, y1 + 0.4
	}
	t := time.Now()
	for i := 0; i < calls; i++ {
		x1, y1, x2, y2 := box(i)
		series.AddBoxDelta(x1, y1, x2, y2, 1)
	}
	p.metrics["cheb.addbox_ns"] = float64(time.Since(t)) / calls
	var sink float64
	t = time.Now()
	for i := 0; i < calls; i++ {
		lo, hi := series.Bounds(box(i))
		sink += lo + hi
	}
	p.metrics["cheb.bounds_ns"] = float64(time.Since(t)) / calls
	if math.IsNaN(sink) { // also keeps the loop's result alive
		return fmt.Errorf("cheb.Bounds returned NaN")
	}

	// A hit deep-copies the entry: the cost that grows with the answer.
	c := cache.New(64 << 20)
	entry := &cache.Entry{Region: make(geom.Region, 10000)}
	for i := range entry.Region {
		entry.Region[i] = geom.NewRect(float64(i), 0, float64(i)+1, 1)
	}
	key := cache.Key{Epoch: 1, At: 1, Rho: 1, L: 30}
	compute := func() (*cache.Entry, error) { return entry, nil }
	if _, _, err := c.Do(key, compute); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		d, err := timeIt(func() error {
			_, outcome, err := c.Do(key, compute)
			if err == nil && outcome != cache.Hit {
				err = fmt.Errorf("cache.Do: outcome %v, want a hit", outcome)
			}
			return err
		})
		if err != nil {
			return err
		}
		p.add("cache.do_hit_us", d)
	}
	return nil
}

// finish turns the series into metrics and checks that the layers' times
// account for the engine calls.
func (p *probe) finish() {
	for name, vs := range p.series {
		p.metrics[name] = plan.Median(vs)
	}
	gap := func(metric, what, engine, layers string) {
		e, l := p.metrics[engine], p.metrics[layers]
		delete(p.metrics, layers)
		if e <= 0 {
			return
		}
		r := (e - l) / e
		p.metrics[metric] = r
		if r > unattributedLimit || r < -unattributedLimit {
			p.notes = append(p.notes, fmt.Sprintf("%s: the layers' spans sum to %.0f us of a %.0f us engine call; %.0f%% is unattributed (limit %.0f%%)",
				what, l, e, 100*r, 100*unattributedLimit))
		}
	}
	gap("core.fr_unattributed_ratio", "FR snapshot at Workers=1", "seq.snapshot_fr_us", "layers.snapshot_fr_us")
	gap("core.tick_unattributed_ratio", "tick", "core.tick_us", "layers.tick_us")
	if seq, par := p.metrics["seq.snapshot_fr_us"], p.metrics["core.snapshot_fr_us"]; par > 0 && seq > 0 {
		p.metrics["parallel.fr_speedup"] = seq / par
		p.metrics["shard.fr_overhead_ratio"] = p.metrics["shard.snapshot_fr_us"] / par
	}
	delete(p.metrics, "seq.snapshot_fr_us")
	delete(p.metrics, "shard.snapshot_fr_us")
	p.metrics["shadow.mismatch"] = float64(p.mismatch)
	p.metrics["trace.spans"] = float64(len(p.tr.spans))
}
