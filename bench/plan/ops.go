package plan

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// Request classes: every timed sample belongs to exactly one.
const (
	ClassFRSnapshot = "fr-snapshot"
	ClassFRInterval = "fr-interval"
	ClassPASnapshot = "pa-snapshot"
	ClassPAInterval = "pa-interval"
	ClassTick       = "tick"
	ClassApply      = "apply"
)

// Op is one query of a workload. Writes are not ops: the writer takes the
// next tick of the stream, or the next FreshObject.
type Op struct {
	Class  string
	Method string  // "fr" or "pa"
	L      float64 // neighbourhood edge
	Varrho float64 // relative threshold; sent as rho = n*varrho/10^6
	AtOff  int     // query timestamp is now+AtOff
	Span   int     // > 0: interval query over [at, at+Span]
}

// Rho is the absolute density threshold for n objects: the paper's relative
// threshold varrho scaled to the 10^6 square-mile plane. The harness sends
// it absolute so that a threshold never depends on the server's live count.
func Rho(n int, varrho float64) float64 { return float64(n) * varrho / (AreaEdge * AreaEdge) }

// Query renders the op as the query string of GET /v1/query. With now < 0
// the timestamps are sent in the relative now+K form, which the server
// resolves under its own lock (needed while a writer moves the clock);
// otherwise they are absolute, so that a check knows which instant it asked
// about.
func (o Op) Query(n int, now int64) string {
	q := url.Values{}
	q.Set("method", o.Method)
	q.Set("l", strconv.FormatFloat(o.L, 'g', -1, 64))
	q.Set("rho", strconv.FormatFloat(Rho(n, o.Varrho), 'g', -1, 64))
	at := func(off int) string {
		if now < 0 {
			return "now+" + strconv.Itoa(off)
		}
		return strconv.FormatInt(now+int64(off), 10)
	}
	q.Set("at", at(o.AtOff))
	if o.Span > 0 {
		q.Set("until", at(o.AtOff+o.Span))
	}
	return q.Encode()
}

// Workload is one traffic mix. Names are fixed: later issues refer to them.
type Workload struct {
	Name string
	Why  string
	// Primary and Secondary are the request classes whose latencies are
	// reported as primary_* and secondary_*.
	Primary, Secondary string
	// Readers is the number of closed-loop query clients and Reads the
	// method they ask for: "fr", "pa" or "" (no reader).
	Readers int
	Reads   string
	// Writer says how updates arrive: "" (none), "closed" (the next request
	// leaves when the previous one is answered) or "open" (on a fixed
	// schedule, each request timed from when it was due).
	Writer string
	// WindowCycles is how many consecutive cycles of one closed-loop client
	// make a window of about a second, the unit of the quiet statistics
	// (QuietLow): every window holds the same mix of request classes.
	WindowCycles int
	// MemoryCycles is how many cycles the first closed-loop client has
	// completed when the server's memory high-water mark is read: after a
	// fixed amount of work, about a third of a run, not after a fixed time,
	// because the mark grows with the work done and the work a run gets
	// done in its time follows the host's speed.
	MemoryCycles int
}

// Workloads lists the four workloads in the order the suite runs them.
var Workloads = []Workload{
	{
		Name:    "exact-read",
		Why:     "1 closed-loop client, FR snapshots over l x varrho plus an FR interval, no writes: the paper's exact method; sweep dominates, pa and the write path idle",
		Primary: ClassFRSnapshot, Secondary: ClassFRInterval, Readers: 1, Reads: "fr", WindowCycles: 1, MemoryCycles: 3,
	},
	{
		Name:    "approx-read",
		Why:     "2 closed-loop clients, PA snapshots plus a PA interval, no writes: the approximation; pa/cheb and service overhead do the work, sweep and tprtree none - the control for FR changes",
		Primary: ClassPASnapshot, Secondary: ClassPAInterval, Readers: 2, Reads: "pa", WindowCycles: 3, MemoryCycles: 20,
	},
	{
		Name:    "update-stream",
		Why:     "1 closed-loop writer, no readers: /v1/updates ticks of ~1,030 records plus 10 single-object /v1/apply each: the maintenance cost curve; same pa/tprtree as the reads, used the other way round",
		Primary: ClassTick, Secondary: ClassApply, Writer: "closed", WindowCycles: 10, MemoryCycles: 120,
	},
	{
		Name:    "mixed-rw",
		Why:     "1 closed-loop FR reader beside an open-loop writer (a tick every 1 s, an apply every 50 ms, timed from due time): each write waits out the query's read lock and stalls the next query - the write cliff",
		Primary: ClassFRSnapshot, Secondary: ClassApply, Readers: 1, Reads: "fr", Writer: "open", WindowCycles: 1, MemoryCycles: 3,
	},
}

// Find returns the workload with the given name.
func Find(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("plan: unknown workload %q", name)
}

// Open-loop schedule of mixed-rw: a tick is due every TickPeriodMs, and
// between two ticks an apply is due every ApplyPeriodMs.
const (
	TickPeriodMs  = 1000
	ApplyPeriodMs = 50
)

// AppliesPerTick is how many applies follow each tick of the closed-loop
// writer; FreshLag is how many applies an inserted object lives before the
// writer deletes it again.
const (
	AppliesPerTick = 10
	FreshLag       = 8
)

// ProbeTicks is how many ticks of the stream the traced layer probe replays;
// a write workload's stream is never generated shorter.
const ProbeTicks = 20

// FreshIDBase is the first id of the objects applies insert — far above
// anything pdrgen assigns, so a fresh object never collides with the stream.
const FreshIDBase = uint64(1) << 41

// frClasses is what the exact queries cycle through: the paper's l x varrho
// grid plus its centre. The count is odd on purpose: with equally many
// samples per class, the median latency then falls inside the middle class
// instead of on the boundary between two, where it would jump by the
// distance between them from run to run.
var frClasses = [][2]float64{{30, 1}, {30, 3}, {30, 5}, {45, 3}, {60, 1}, {60, 3}, {60, 5}}

// paVarrhos is what the approximate queries cycle through; l is fixed at the
// edge pdrserve builds its surfaces for by default.
var paVarrhos = []float64{1, 3, 5}

const paL = 30

// maxAtOff bounds query timestamps to now+[0, maxAtOff): inside the
// prediction window the paper queries.
const maxAtOff = 30

// rngFor derives an independent, reproducible stream for one (seed, salt, a,
// b) — so that cycle i of client c is the same whether or not the cycles
// before it ran.
func rngFor(seed int64, salt string, a, b int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for _, c := range []byte(salt) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h = (h^uint64(a))*0x100000001B3 + uint64(b)
	h ^= h >> 29
	return rand.New(rand.NewSource(int64(h)))
}

// ReaderCycle returns cycle i of query client c: a seeded, fixed sequence in
// which every snapshot class appears the same number of times, so that class
// counts — and the class a percentile falls in — do not depend on where a run
// stops.
func (w Workload) ReaderCycle(seed int64, c, i int) []Op {
	rng := rngFor(seed, w.Name, c, i)
	var ops []Op
	switch w.Reads {
	case "fr":
		at := spreadOffsets(rng, len(frClasses))
		for j, k := range rng.Perm(len(frClasses)) {
			ops = append(ops, Op{Class: ClassFRSnapshot, Method: "fr",
				L: frClasses[k][0], Varrho: frClasses[k][1], AtOff: at[j]})
		}
		// Every cycle carries the interval, so that every window of the
		// quiet statistics holds the same work.
		if w.Secondary == ClassFRInterval {
			ops = append(ops, Op{Class: ClassFRInterval, Method: "fr",
				L: 60, Varrho: 3, AtOff: rng.Intn(maxAtOff), Span: 1})
		}
	case "pa":
		at := spreadOffsets(rng, 12)
		for k := 0; k < 12; k++ {
			ops = append(ops, Op{Class: ClassPASnapshot, Method: "pa",
				L: paL, Varrho: paVarrhos[k%len(paVarrhos)], AtOff: at[k]})
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		ops = append(ops, Op{Class: ClassPAInterval, Method: "pa",
			L: paL, Varrho: 3, AtOff: rng.Intn(maxAtOff), Span: 7})
	}
	return ops
}

// spreadOffsets draws n query timestamps, one from each n-th of the
// prediction window, in random order: a query costs more the further ahead it
// looks, and a cycle that covers the window evenly is the same work as the
// next one.
func spreadOffsets(rng *rand.Rand, n int) []int {
	at := make([]int, n)
	for j, stratum := range rng.Perm(n) {
		at[j] = int((float64(stratum) + rng.Float64()) * maxAtOff / float64(n))
	}
	return at
}

// FreshObject returns the k-th object the writer inserts through /v1/apply.
func FreshObject(seed int64, k int) Record {
	rng := rngFor(seed, "fresh", k, 0)
	return Record{
		Kind: KindInsert, ID: FreshIDBase + uint64(k),
		X: 50 + 900*rng.Float64(), Y: 50 + 900*rng.Float64(),
		VX: rng.Float64() - 0.5, VY: rng.Float64() - 0.5,
	}
}

// PAChecks is how many approximate check queries follow the timed phase. The
// approximation's error depends on the threshold and on how far ahead the
// query looks, so the error ratio is taken over many of both: ten look-ahead
// strata for each threshold.
const PAChecks = 30

// FRChecks is how many exact check queries follow the timed phase: each costs
// a third of a second of every run, so a run checks four of the seven classes,
// chosen by its seed, and ten seeds check them all several times over.
const FRChecks = 4

// Checks returns the check queries run after the timed phase: FRChecks exact
// ones of different classes, and PAChecks approximate ones that cycle through the thresholds and,
// per threshold, take one timestamp from each tenth of the prediction window.
func Checks(seed int64, method string) []Op {
	rng := rngFor(seed, "check-"+method, 0, 0)
	var ops []Op
	if method == "fr" {
		for _, k := range rng.Perm(len(frClasses))[:FRChecks] {
			c := frClasses[k]
			ops = append(ops, Op{Class: ClassFRSnapshot, Method: "fr", L: c[0], Varrho: c[1], AtOff: rng.Intn(maxAtOff)})
		}
		return ops
	}
	strata := PAChecks / len(paVarrhos)
	for k := 0; k < PAChecks; k++ {
		width := maxAtOff / strata
		ops = append(ops, Op{Class: ClassPASnapshot, Method: "pa", L: paL, Varrho: paVarrhos[k%len(paVarrhos)],
			AtOff: k/len(paVarrhos)*width + rng.Intn(width)})
	}
	return ops
}

// CheckSamples is the number of sample points per check query.
const CheckSamples = 2000

// CheckPoints returns the sample points of check query k.
func CheckPoints(seed int64, k int, objects []Point, l float64) []Point {
	return SamplePoints(rngFor(seed, "points", k, 0), objects, l, CheckSamples)
}
