package core

import (
	"fmt"
	"sync/atomic"

	"pdr/internal/history"
	"pdr/internal/motion"
	"pdr/internal/telemetry"
)

// directory is the engine's one record of the live objects: each object's
// current movement. It validates updates — a duplicate insert could
// otherwise count an object twice in every summary, and a delete must name
// the movement the summaries hold — and is what BruteForce, PastSnapshot and
// Save gather from. The engine lock guards m; count mirrors len(m) so
// NumObjects reads it without the lock.
type directory struct {
	count atomic.Int64
	m     map[motion.ObjectID]motion.State
}

// insert registers a live object; errors if the ID is already live.
func (d *directory) insert(st motion.State) error {
	if _, ok := d.m[st.ID]; ok {
		return fmt.Errorf("core: insert of live object %d (delete the stale movement first)", st.ID)
	}
	if d.m == nil {
		d.m = make(map[motion.ObjectID]motion.State)
	}
	d.m[st.ID] = st
	d.count.Add(1)
	return nil
}

// remove drops the object whose live movement is exactly st; errors, and
// changes nothing, if the object is unknown or its movement differs.
func (d *directory) remove(st motion.State) error {
	cur, ok := d.m[st.ID]
	if !ok {
		return fmt.Errorf("core: delete of unknown object %d", st.ID)
	}
	if cur != st {
		return fmt.Errorf("core: delete state mismatch for object %d", st.ID)
	}
	delete(d.m, st.ID)
	d.count.Add(-1)
	return nil
}

// admit validates an update against the directory and, only when it is
// valid, records it there: an insert must not be live, a delete must name the
// live movement exactly. A rejected update therefore changes nothing, and an
// admitted one cannot fail in the structures (enact) for any reason but
// corruption. The caller holds the engine write lock.
func (s *Server) admit(u motion.Update) error {
	switch u.Kind {
	case motion.Insert:
		return s.dir.insert(u.State)
	case motion.Delete:
		return s.dir.remove(u.State)
	default:
		return fmt.Errorf("core: unknown update kind %d", u.Kind)
	}
}

// enact applies an admitted update to the histogram, the index and the
// archive. The caller holds the engine write lock.
func (s *Server) enact(u motion.Update) error {
	switch u.Kind {
	case motion.Insert:
		s.hist.Insert(u.State)
		s.index.Insert(u.State)
	case motion.Delete:
		s.hist.Delete(u.State, u.At)
		if !s.index.Delete(u.State) {
			return fmt.Errorf("core: object %d missing from the index", u.State.ID)
		}
		return s.archive(u)
	}
	return nil
}

// reReport enacts an admitted delete and the admitted insert of the same
// object that follows it as one re-report: one histogram pass (Move) and
// one index descent (Update). The histogram and archive end as enacting the
// two records in turn leaves them, and the index holds the same movements.
// It reports whether the new movement took the old one's place in its index
// leaf. The caller holds the engine write lock.
func (s *Server) reReport(del motion.Update, nw motion.State) (inPlace bool, err error) {
	s.hist.Move(del.State, del.At, nw)
	found, inPlace := s.index.Update(del.State, nw)
	if !found {
		return false, fmt.Errorf("core: object %d missing from the index", del.State.ID)
	}
	return inPlace, s.archive(del)
}

// archive records the segment an admitted delete ends, when history is kept.
func (s *Server) archive(del motion.Update) error {
	if s.hst != nil && del.At > del.State.Ref {
		return s.hst.Record(history.Segment{State: del.State, From: del.State.Ref, To: del.At})
	}
	return nil
}

// reReportAt reports whether updates[i] is a delete immediately followed by
// the insert of the same object: a re-report.
func reReportAt(updates []motion.Update, i int) bool {
	return i+1 < len(updates) && updates[i].Kind == motion.Delete &&
		updates[i+1].Kind == motion.Insert && updates[i+1].State.ID == updates[i].State.ID
}

// Load bulk-inserts the initial object states. Like Tick it applies the
// valid prefix: a duplicate ID stops the load there and is reported, as a
// *PartialError carrying the prefix's length, after the states before it
// have been loaded. The histogram and index load and the surface's timestamp
// slots run in one fan-out, as in Tick; an empty tree is packed by STR bulk
// loading, which is roughly an order of magnitude faster than one-at-a-time
// insertion.
func (s *Server) Load(states []motion.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1)
	if len(states) == 0 {
		return nil
	}
	own := make([]motion.State, 0, len(states)) // BulkLoad reorders its input
	inserts := make([]motion.Update, 0, len(states))
	var loadErr error
	for _, st := range states {
		if loadErr = s.dir.insert(st); loadErr != nil {
			break
		}
		inserts = append(inserts, motion.NewInsert(st))
		own = append(own, st)
	}
	slots := 0
	if s.surf != nil {
		slots = s.surf.Begin(inserts)
	}
	var err error
	s.par.ForEach(1+slots, func(i int) {
		if i > 0 {
			s.surf.ApplySlot(i-1, inserts)
			return
		}
		for _, st := range own {
			s.hist.Insert(st)
		}
		if s.index.Len() == 0 {
			err = s.index.BulkLoad(own)
			return
		}
		for _, st := range own {
			s.index.Insert(st)
		}
	})
	if err != nil {
		return err
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

// Tick advances server time to now and applies the tick's update stream
// under the engine write lock. Updates are admitted in stream order — the
// directory is sequential — and the admitted stream is then applied in one
// fan-out of independent items: the histogram, index and archive walking the
// stream in order, and each timestamp slot of the Chebyshev surface (walking
// the whole stream in order for its own timestamp). The structures go first:
// theirs is the long item, and the pool's dynamic cursor packs the short slot
// items around it. In the structures' item a delete immediately followed by
// the insert of the same object is one re-report (reReport): one histogram
// pass and one index descent instead of two of each.
//
// An invalid update stops processing: the valid prefix before it is applied
// in full, the bad update and everything after it change nothing, and the
// error is a *PartialError carrying the prefix's length. The epoch is bumped
// once the clock check passes, before any update is admitted, so cached
// answers never survive a partial tick; a tick rejected for moving time
// backwards changes nothing and leaves the epoch alone.
func (s *Server) Tick(now motion.Tick, updates []motion.Update) error {
	return s.TickTraced(now, updates, nil)
}

// TickTraced is Tick recording its two phases as child spans of sp: "plan"
// (admit, sequential) and "apply" (the fan-out; its re_reports and in_place
// attributes count the re-reports and those rewritten in their index leaf).
// A nil sp traces nothing and allocates nothing — Tick simply passes nil.
func (s *Server) TickTraced(now motion.Tick, updates []motion.Update, sp *telemetry.Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.Now(); now < cur {
		return fmt.Errorf("core: time moved backwards: %d < %d", now, cur)
	}
	s.epoch.Add(1)
	s.now.Store(int64(now))
	psp := sp.Child("plan")
	psp.SetAttrInt("updates", int64(len(updates)))
	var planErr error
	for i, u := range updates {
		if err := s.admit(u); err != nil {
			planErr = &PartialError{Applied: i, Err: err}
			updates = updates[:i]
			break
		}
	}
	psp.SetAttrInt("applied", int64(len(updates)))
	psp.End()
	slots := 0
	if s.surf != nil {
		// The helpers the fan-out hands slots to write disjoint slots under
		// the writer's engine lock.
		s.surf.Advance(now)
		slots = s.surf.Begin(updates)
	}
	asp := sp.Child("apply")
	asp.SetAttrInt("slots", int64(slots))
	asp.SetAttrInt("workers", int64(s.par.Workers()))
	var err error
	var reReports, inPlace int64
	s.par.ForEach(1+slots, func(i int) {
		if i > 0 {
			s.surf.ApplySlot(i-1, updates)
			return
		}
		s.hist.Advance(now)
		s.index.SetNow(now)
		for k := 0; k < len(updates); k++ {
			if reReportAt(updates, k) {
				var placed bool
				if placed, err = s.reReport(updates[k], updates[k+1].State); err != nil {
					return
				}
				reReports++
				if placed {
					inPlace++
				}
				k++
				continue
			}
			if err = s.enact(updates[k]); err != nil {
				return
			}
		}
	})
	asp.SetAttrInt("re_reports", reReports)
	asp.SetAttrInt("in_place", inPlace)
	asp.End()
	if err != nil {
		return err
	}
	return planErr
}

// Apply processes a single update record between ticks under the engine
// write lock. A rejected update changes nothing, so it leaves the epoch —
// and with it every cached answer — alone.
func (s *Server) Apply(u motion.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(u); err != nil {
		return err
	}
	s.epoch.Add(1)
	if err := s.enact(u); err != nil {
		return err
	}
	if s.surf != nil {
		s.surf.Apply(u)
	}
	return nil
}
