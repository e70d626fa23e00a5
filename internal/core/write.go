package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pdr/internal/motion"
	"pdr/internal/stopwatch"
	"pdr/internal/telemetry"
)

// owners records where one live object is registered: its primary partition
// (which holds the object in every structure) plus a bitmask of replica
// partitions (index-only registrations for boundary straddlers; never
// includes the primary bit).
type owners struct {
	primary  int
	replicas uint64
}

// mask returns the full lock set: primary plus replicas.
func (o owners) mask() uint64 { return o.replicas | 1<<uint(o.primary) }

// entry is one live object's directory record: its current movement and
// the partitions it is registered with.
type entry struct {
	state motion.State
	owners
}

const dirBuckets = 64

// directory is the engine's one record of the live objects: each object's
// current movement and where it is registered. It validates updates — a
// duplicate insert could otherwise register an object under two primaries
// and double-count it in every summary — routes deletes to the partitions
// that hold the object, and is what BruteForce, PastSnapshot and Save
// gather from. Buckets shard the map so concurrent writers to different
// objects rarely contend.
type directory struct {
	count      atomic.Int64
	straddlers atomic.Int64
	buckets    [dirBuckets]dirBucket
}

type dirBucket struct {
	mu sync.Mutex // pdr:lockrank shard-registry 40
	m  map[motion.ObjectID]entry
}

func (d *directory) bucket(id motion.ObjectID) *dirBucket {
	return &d.buckets[uint64(id)%dirBuckets]
}

// insert registers a live object; errors if the ID is already live.
func (d *directory) insert(st motion.State, ow owners) error {
	b := d.bucket(st.ID)
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[st.ID]; ok {
		return fmt.Errorf("core: insert of live object %d (delete the stale movement first)", st.ID)
	}
	if b.m == nil {
		b.m = make(map[motion.ObjectID]entry)
	}
	b.m[st.ID] = entry{state: st, owners: ow}
	d.count.Add(1)
	if ow.replicas != 0 {
		d.straddlers.Add(1)
	}
	return nil
}

// lookup returns the record for id.
func (d *directory) lookup(id motion.ObjectID) (entry, bool) {
	b := d.bucket(id)
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.m[id]
	return e, ok
}

// remove drops the object whose live movement is exactly st; errors, and
// changes nothing, if the object is unknown or its movement differs.
func (d *directory) remove(st motion.State) error {
	b := d.bucket(st.ID)
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.m[st.ID]
	if !ok {
		return errUnknownDelete(st.ID)
	}
	if e.state != st {
		return fmt.Errorf("core: delete state mismatch for object %d", st.ID)
	}
	delete(b.m, st.ID)
	d.count.Add(-1)
	if e.replicas != 0 {
		d.straddlers.Add(-1)
	}
	return nil
}

func errUnknownDelete(id motion.ObjectID) error {
	return fmt.Errorf("core: delete of unknown object %d", id)
}

// each calls fn with every live movement, in no particular order. fn must
// not call back into the directory.
func (d *directory) each(fn func(motion.State)) {
	for i := range d.buckets {
		d.buckets[i].each(fn)
	}
}

func (b *dirBucket) each(fn func(motion.State)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.m {
		fn(e.state)
	}
}

// lockAllWrite acquires every partition's write lock in ascending order.
func (s *Server) lockAllWrite() {
	for i := range s.pmu {
		s.lockPartitionWrite(i)
	}
	s.observeWriteFan(len(s.pmu))
}

func (s *Server) unlockAllWrite() {
	for i := len(s.pmu) - 1; i >= 0; i-- {
		s.pmu[i].Unlock()
	}
}

// lockMaskWrite acquires the write locks in mask in ascending partition
// order — the fixed order is what makes concurrent multi-partition writers
// deadlock-free.
func (s *Server) lockMaskWrite(mask uint64) {
	for i := range s.pmu {
		if mask&(1<<uint(i)) != 0 {
			s.lockPartitionWrite(i)
		}
	}
	s.observeWriteFan(bits.OnesCount64(mask))
}

func (s *Server) unlockMaskWrite(mask uint64) {
	for i := len(s.pmu) - 1; i >= 0; i-- {
		if mask&(1<<uint(i)) != 0 {
			s.pmu[i].Unlock()
		}
	}
}

func (s *Server) lockPartitionWrite(i int) {
	if m := s.pmet; m != nil {
		sw := stopwatch.Start()
		s.pmu[i].Lock()
		m.lockWait[i].Observe(sw.Elapsed().Seconds())
		return
	}
	s.pmu[i].Lock()
}

func (s *Server) observeWriteFan(width int) {
	if m := s.pmet; m != nil {
		m.writeFan.Observe(float64(width))
	}
}

// prime fixes every partition's histogram window phase at base before the
// first data arrives. dh.FilterMerged requires equal window phases, and a
// histogram fixes its phase lazily at the first insert's reference time — so
// the engine makes that decision once, for all partitions together.
func (s *Server) prime(base motion.Tick) {
	if s.histPrimed.Load() {
		return
	}
	s.lockAllWrite()
	s.primeLocked(base)
	s.unlockAllWrite()
}

// primeLocked is prime for a caller holding every partition's write lock.
func (s *Server) primeLocked(base motion.Tick) {
	if s.histPrimed.Load() {
		return
	}
	for _, h := range s.hists {
		h.Advance(base)
	}
	s.histPrimed.Store(true)
}

// route resolves the partitions an update touches: an insert's from the
// router at engine time now, a delete's from the directory.
func (s *Server) route(u motion.Update, now motion.Tick) (owners, error) {
	switch u.Kind {
	case motion.Insert:
		primary, replicas := s.router.OwnersOf(u.State, now)
		return owners{primary: primary, replicas: replicas}, nil
	case motion.Delete:
		e, ok := s.dir.lookup(u.State.ID)
		if !ok {
			return owners{}, errUnknownDelete(u.State.ID)
		}
		return e.owners, nil
	default:
		return owners{}, fmt.Errorf("core: unknown update kind %d", u.Kind)
	}
}

// admit validates a routed update against the directory and, only when it
// is valid, records it there: an insert must not be live, a delete must name
// the live movement exactly. A rejected update therefore changes nothing,
// and an admitted one cannot fail in the structures (partition.apply) for
// any reason but corruption. The caller holds the write locks of ow.mask().
func (s *Server) admit(u motion.Update, ow owners) error {
	delta := int64(1)
	if u.Kind == motion.Insert {
		if err := s.dir.insert(u.State, ow); err != nil {
			return err
		}
	} else { // a delete: route rejects every other kind
		if err := s.dir.remove(u.State); err != nil {
			return err
		}
		delta = -1
	}
	s.parts[ow.primary].objects.Add(delta)
	for m := ow.replicas; m != 0; m &= m - 1 {
		s.parts[bits.TrailingZeros64(m)].replicas.Add(delta)
	}
	return nil
}

// Load bulk-inserts the initial object states. Like Tick it applies the
// valid prefix: a duplicate ID stops the load there and is reported, as a
// *PartialError carrying the prefix's length, after the states before it
// have been loaded. The partitions' bulk loads and the surface's timestamp
// slots run in one fan-out, as in Tick.
func (s *Server) Load(states []motion.State) error {
	s.lockAllWrite()
	defer s.unlockAllWrite()
	s.epoch.Add(1)
	if len(states) == 0 {
		return nil
	}
	s.primeLocked(states[0].Ref)
	now := s.Now()
	own := make([][]motion.State, len(s.parts))
	reps := make([][]motion.State, len(s.parts))
	inserts := make([]motion.Update, 0, len(states))
	var loadErr error
	for _, st := range states {
		u := motion.NewInsert(st)
		primary, replicas := s.router.OwnersOf(st, now)
		if loadErr = s.admit(u, owners{primary: primary, replicas: replicas}); loadErr != nil {
			break
		}
		inserts = append(inserts, u)
		own[primary] = append(own[primary], st)
		for m := replicas; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			reps[r] = append(reps[r], st)
		}
	}
	slots := 0
	if s.surf != nil {
		s.surfMu.Lock()
		defer s.surfMu.Unlock()
		slots = s.surf.Begin(inserts)
	}
	errs := make([]error, len(s.parts))
	s.par.ForEach(len(s.parts)+slots, func(i int) {
		if i >= len(s.parts) {
			s.surf.ApplySlot(i-len(s.parts), inserts)
			return
		}
		errs[i] = s.parts[i].load(own[i], reps[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if loadErr != nil {
		return &PartialError{Applied: len(inserts), Err: loadErr}
	}
	return nil
}

// PartialError is how Tick and Load report a stream they stopped in: the
// first Applied records — the valid prefix — took effect, the next one was
// rejected with Err, whose text is the error's.
type PartialError struct {
	Applied int
	Err     error
}

func (e *PartialError) Error() string { return e.Err.Error() }
func (e *PartialError) Unwrap() error { return e.Err }

// op is one admitted update bound for a single partition.
type op struct {
	u       motion.Update
	replica bool
}

// Tick advances server time to now and applies the tick's update stream. A
// tick touches every partition (all clocks and histogram windows advance in
// lockstep), so it write-locks the whole engine. Updates are routed and
// admitted in stream order — the directory is sequential — and the admitted
// stream is then applied in one fan-out of independent items: each
// partition's list (preserving the stream's relative order for the objects
// it holds) and each timestamp slot of the Chebyshev surface (walking the
// whole stream in order for its own timestamp). The partitions go first:
// they are the long items, and the pool's dynamic cursor packs the short
// slot items around them.
//
// An invalid update stops processing: the valid prefix before it is applied
// in full, the bad update and everything after it change nothing, and the
// error is a *PartialError carrying the prefix's length. The epoch is bumped
// before anything else, so cached answers never survive a partial tick.
func (s *Server) Tick(now motion.Tick, updates []motion.Update) error {
	return s.TickTraced(now, updates, nil)
}

// TickTraced is Tick recording its two phases as child spans of sp: "plan"
// (route and admit, sequential) and "apply" (the fan-out). A nil sp traces
// nothing and allocates nothing — Tick simply passes nil.
func (s *Server) TickTraced(now motion.Tick, updates []motion.Update, sp *telemetry.Span) error {
	s.lockAllWrite()
	defer s.unlockAllWrite()
	s.epoch.Add(1)
	if cur := s.Now(); now < cur {
		return fmt.Errorf("core: time moved backwards: %d < %d", now, cur)
	}
	s.now.Store(int64(now))
	s.histPrimed.Store(true) // every histogram window advances to now below
	psp := sp.Child("plan")
	psp.SetAttrInt("updates", int64(len(updates)))
	plan := make([][]op, len(s.parts))
	for i := range plan {
		plan[i] = make([]op, 0, len(updates)/len(plan)+1)
	}
	var planErr error
	for i, u := range updates {
		ow, err := s.route(u, now)
		if err == nil {
			err = s.admit(u, ow)
		}
		if err != nil {
			planErr = &PartialError{Applied: i, Err: err}
			updates = updates[:i]
			break
		}
		plan[ow.primary] = append(plan[ow.primary], op{u: u})
		for m := ow.replicas; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			plan[r] = append(plan[r], op{u: u, replica: true})
		}
	}
	psp.SetAttrInt("applied", int64(len(updates)))
	psp.End()
	slots := 0
	if s.surf != nil {
		// The writer holds the surface lock across the fan-out; the helpers
		// it hands slots to write disjoint slots under it.
		s.surfMu.Lock()
		defer s.surfMu.Unlock()
		s.surf.Advance(now)
		slots = s.surf.Begin(updates)
	}
	asp := sp.Child("apply")
	asp.SetAttrInt("partitions", int64(len(s.parts)))
	asp.SetAttrInt("slots", int64(slots))
	asp.SetAttrInt("workers", int64(s.par.Workers()))
	errs := make([]error, len(s.parts))
	s.par.ForEach(len(s.parts)+slots, func(i int) {
		if i >= len(s.parts) {
			s.surf.ApplySlot(i-len(s.parts), updates)
			return
		}
		p := s.parts[i]
		p.advance(now)
		for _, o := range plan[i] {
			if errs[i] = p.apply(o.u, o.replica); errs[i] != nil {
				return
			}
		}
	})
	asp.End()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return planErr
}

// Apply processes a single update record between ticks, write-locking only
// the partitions that hold the object: updates to objects in different
// territories run concurrently instead of serializing on one engine lock.
func (s *Server) Apply(u motion.Update) error {
	if u.Kind == motion.Insert {
		s.prime(u.State.Ref)
	}
	for {
		ow, err := s.route(u, s.Now())
		if err != nil {
			return err
		}
		mask := ow.mask()
		s.lockMaskWrite(mask)
		// A delete's lock set comes from the directory, and the registration
		// can change (or vanish) before the locks are held: verify under
		// them and retry on a race.
		if u.Kind == motion.Delete {
			if cur, ok := s.dir.lookup(u.State.ID); !ok || cur.owners != ow {
				s.unlockMaskWrite(mask)
				continue
			}
		}
		err = s.applyLocked(u, ow)
		s.unlockMaskWrite(mask)
		return err
	}
}

// applyLocked admits and enacts one update whose partitions (ow.mask()) the
// caller has write-locked. A rejected update changes nothing, so it leaves
// the epoch — and with it every cached answer — alone.
func (s *Server) applyLocked(u motion.Update, ow owners) error {
	if err := s.admit(u, ow); err != nil {
		return err
	}
	s.epoch.Add(1)
	if err := s.parts[ow.primary].apply(u, false); err != nil {
		return err
	}
	for m := ow.replicas; m != 0; m &= m - 1 {
		if err := s.parts[bits.TrailingZeros64(m)].apply(u, true); err != nil {
			return err
		}
	}
	if s.surf != nil {
		s.surfMu.Lock()
		s.surf.Apply(u)
		s.surfMu.Unlock()
	}
	return nil
}
