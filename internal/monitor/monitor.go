// Package monitor runs standing (continuous) PDR queries over the engine:
// a registered query is re-evaluated as server time advances, and
// subscribers receive the *changes* — regions that became dense and regions
// that stopped being dense — rather than full answers. This is the
// continuous-query layer the paper's traffic-management motivation implies
// (watch for congestion forming, alert when it appears or dissolves).
//
// A Monitor has one lock of its own, taken before the engine's: a tick and
// the re-evaluations it triggers run under it as one step, so a
// registration or removal never lands between the two. Queries and
// between-tick writes to the engine do not take it: an apply that lands
// between a tick and its re-evaluations is seen by them, as by any query
// after it.
package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/stopwatch"
	"pdr/internal/telemetry"
)

// ContinuousQuery is a standing PDR query: every Every ticks the monitor
// answers (Rho, L, now+Ahead) with Method and diffs it against the previous
// answer.
type ContinuousQuery struct {
	Rho    float64
	L      float64
	Ahead  motion.Tick // forecast distance (0 = current time)
	Every  motion.Tick // re-evaluation period (1 = every tick)
	Method core.Method
}

// Event is one change notification. Its regions are read-only: Region (and
// Added, on a first evaluation) is the engine's answer itself, which the
// result cache and the monitor's next diff share.
type Event struct {
	// SubID identifies the subscription.
	SubID int
	// At is the evaluation time (server now); Target = At + Ahead is the
	// forecast timestamp the region refers to.
	At, Target motion.Tick
	// Region is the full current answer and Area the area it covers (the
	// snapshot result's own figure).
	Region geom.Region
	Area   float64
	// Added covers points that are dense now but were not in the previous
	// evaluation; Removed covers the opposite.
	Added, Removed geom.Region
	// First marks the initial evaluation (Added is the whole region).
	First bool
}

// Changed reports whether the event carries any change.
func (e Event) Changed() bool { return len(e.Added) > 0 || len(e.Removed) > 0 }

type sub struct {
	id      int
	q       ContinuousQuery
	lastRun motion.Tick
	ran     bool
	prev    geom.Region
}

// Monitor evaluates standing queries against a server. It is safe for
// concurrent use: mu serializes ticks, re-evaluations and subscription
// changes.
type Monitor struct {
	srv *core.Server
	// numSubs is len(subs), kept beside it so NumSubscriptions never waits
	// out a tick that holds mu.
	numSubs atomic.Int64
	// mu guards everything below. Advance holds it across the engine tick,
	// so it is taken before the engine lock (see core's "Lock order").
	mu     sync.Mutex
	nextID int
	subs   map[int]*sub
	met    *metrics // nil unless RegisterMetrics was called
}

// New creates a monitor over srv.
func New(srv *core.Server) *Monitor {
	return &Monitor{srv: srv, subs: make(map[int]*sub)}
}

// metrics is the monitor's instrument bundle: events emitted and
// standing-query evaluation latency.
type metrics struct {
	events *telemetry.Counter
	eval   *telemetry.Histogram
}

// RegisterMetrics exposes the monitor on reg: the live subscription count,
// read at scrape time, plus the events it emits and its evaluation latency
// from here on.
func (m *Monitor) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("pdr_monitor_subscriptions", "Active standing PDR queries.",
		func() float64 { return float64(m.NumSubscriptions()) })
	met := &metrics{
		events: reg.Counter("pdr_monitor_events_total", "Change events emitted to subscribers."),
		eval: reg.Histogram("pdr_monitor_eval_seconds",
			"Per-subscription standing-query evaluation latency.", nil),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = met
}

// Register adds a standing query and returns its subscription id. A query
// the engine would refuse to evaluate is refused here, with the engine's
// error, so it can never fail a tick.
func (m *Monitor) Register(q ContinuousQuery) (int, error) {
	if core.CheckParams(q.Rho, q.L) != nil {
		return 0, fmt.Errorf("monitor: bad query parameters rho=%g l=%g", q.Rho, q.L)
	}
	if q.Ahead < 0 || q.Ahead > m.srv.Config().W {
		return 0, fmt.Errorf("monitor: forecast distance %d outside [0, W=%d]", q.Ahead, m.srv.Config().W)
	}
	if q.Every <= 0 {
		q.Every = 1
	}
	// Once Ahead is within the window, what Check refuses does not depend on
	// the clock, so one check stands for every later evaluation. The check
	// itself is made at one clock: a tick that lands between reading the
	// clock and checking moves the window past now+Ahead, so it is redone.
	for {
		now := m.srv.Now()
		err := m.srv.Check(core.Query{Rho: q.Rho, L: q.L, At: now + q.Ahead}, q.Method)
		if err == nil {
			break
		}
		if m.srv.Now() == now {
			return 0, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	m.subs[m.nextID] = &sub{id: m.nextID, q: q}
	m.numSubs.Add(1)
	return m.nextID, nil
}

// Unregister removes a subscription, reporting whether it existed.
func (m *Monitor) Unregister(id int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[id]; !ok {
		return false
	}
	delete(m.subs, id)
	m.numSubs.Add(-1)
	return true
}

// NumSubscriptions returns the number of active standing queries. It takes
// no lock.
func (m *Monitor) NumSubscriptions() int { return int(m.numSubs.Load()) }

// Advance forwards the tick to the server, then re-evaluates every due
// standing query and returns the resulting events in subscription order.
func (m *Monitor) Advance(now motion.Tick, updates []motion.Update) ([]Event, error) {
	return m.AdvanceTraced(now, updates, nil)
}

// AdvanceTraced is Advance recording the tick and the per-subscription
// re-evaluations as a span subtree of sp, so a traced /v1/updates request
// shows exactly which standing query made it slow. A nil sp traces
// nothing and allocates nothing.
func (m *Monitor) AdvanceTraced(now motion.Tick, updates []motion.Update, sp *telemetry.Span) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tsp := sp.Child("tick")
	tsp.SetAttrInt("updates", int64(len(updates)))
	err := m.srv.TickTraced(now, updates, tsp)
	tsp.End()
	if err != nil {
		return nil, err
	}
	msp := sp.Child("monitor")
	msp.SetAttrInt("subscriptions", int64(len(m.subs)))
	var events []Event
	for id := 1; id <= m.nextID; id++ {
		s, ok := m.subs[id]
		if !ok {
			continue
		}
		if s.ran && now-s.lastRun < s.q.Every {
			continue
		}
		esp := msp.Child("subscription")
		esp.SetAttrInt("sub", int64(id))
		ev, err := m.evaluate(s, now, esp)
		esp.End()
		if err != nil {
			msp.End()
			return events, err
		}
		events = append(events, ev)
		if m.met != nil {
			m.met.events.Inc()
		}
	}
	msp.End()
	return events, nil
}

func (m *Monitor) evaluate(s *sub, now motion.Tick, sp *telemetry.Span) (Event, error) {
	target := now + s.q.Ahead
	sw := stopwatch.Start()
	res, err := m.srv.SnapshotTraced(core.Query{Rho: s.q.Rho, L: s.q.L, At: target}, s.q.Method, sp)
	if err != nil {
		return Event{}, err
	}
	ev := Event{
		SubID: s.id, At: now, Target: target,
		Region: res.Region, Area: res.Area,
		First: !s.ran,
	}
	if s.ran {
		ev.Added = geom.Subtract(res.Region, s.prev)
		ev.Removed = geom.Subtract(s.prev, res.Region)
	} else {
		ev.Added = res.Region
	}
	s.prev = res.Region
	s.lastRun = now
	s.ran = true
	sp.SetAttrBool("changed", ev.Changed())
	// The evaluation cost a subscriber pays is the snapshot plus the diff.
	if m.met != nil {
		m.met.eval.Observe(sw.Elapsed().Seconds())
	}
	return ev, nil
}
