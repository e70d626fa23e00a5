package core

import (
	"fmt"
	"slices"
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

// PartialError is how a write reports a stream it stopped in: the first
// Applied records — the valid prefix — took effect, the next one was
// rejected with Err, whose text is the error's.
type PartialError struct {
	Applied int
	Err     error
}

func (e *PartialError) Error() string { return e.Err.Error() }
func (e *PartialError) Unwrap() error { return e.Err }

// admit records updates in the directory in stream order, under the package
// comment's clock rule, and returns the admitted prefix: the first rejected
// record ends it and is reported as a *PartialError, and changes nothing. An
// admitted record cannot fail in the structures but through corruption. A
// delete ending off the clock is rewritten to end at now in a copy of the
// batch: the caller's slice is never written to.
func (s *Server) admit(now motion.Tick, updates []motion.Update) ([]motion.Update, error) {
	copied := false
	for i, u := range updates {
		var err error
		switch u.Kind {
		case motion.Insert:
			if u.State.Ref > now {
				err = fmt.Errorf("core: insert of object %d referenced at %d, after the clock %d", u.State.ID, u.State.Ref, now)
			} else {
				err = s.dir.insert(u.State)
			}
		case motion.Delete:
			if err = s.dir.remove(u.State); err == nil && u.At != now {
				if !copied {
					updates, copied = slices.Clone(updates), true
				}
				updates[i].At = now
			}
		default:
			err = fmt.Errorf("core: unknown update kind %d", u.Kind)
		}
		if err != nil {
			return updates[:i], &PartialError{Applied: i, Err: err}
		}
	}
	return updates, nil
}

// inlineWrite is the largest admitted batch whose items run inline: up to
// it, handing the surface's slots to the pool costs more than it saves. On
// pdrserve's engine (n = 20,000, 2 vCPUs) 4 inserts and deletes took 85 µs
// inline and 95 µs fanned out; 6 took 133 and 127 µs.
const inlineWrite = 4

// write is the engine's one write (the package comment): Tick, Load and
// Apply run it at the clock now under the engine write lock. It returns how
// many records it admitted and the first error: a corrupt structure, else
// admit's *PartialError. Its phases are child spans of sp (nil traces
// nothing): "plan" (admit) and "apply" (the items).
func (s *Server) write(now motion.Tick, updates []motion.Update, sp *telemetry.Span) (int, error) {
	psp := sp.Child("plan")
	psp.SetAttrInt("updates", int64(len(updates)))
	admitted, planErr := s.admit(now, updates)
	psp.SetAttrInt("applied", int64(len(admitted)))
	psp.End()
	slots := 0
	if s.surf != nil {
		slots = s.surf.Begin(admitted)
	}
	asp := sp.Child("apply")
	asp.SetAttrInt("slots", int64(slots))
	asp.SetAttrInt("workers", int64(s.par.Workers()))
	var reReports, inPlace int64
	var err error
	if len(admitted) <= inlineWrite {
		reReports, inPlace, err = s.enact(admitted)
		for k := 0; k < slots; k++ {
			s.surf.ApplySlot(k, admitted)
		}
	} else {
		// The structures item goes first: it is the long one, and the pool's
		// dynamic cursor packs the short slot items around it. The fan-out's
		// own results keep the inline path free of heap-allocated captures.
		var r, p int64
		var e error
		s.par.ForEach(1+slots, func(i int) {
			if i == 0 {
				r, p, e = s.enact(admitted)
				return
			}
			s.surf.ApplySlot(i-1, admitted)
		})
		reReports, inPlace, err = r, p, e
	}
	asp.SetAttrInt("re_reports", reReports)
	asp.SetAttrInt("in_place", inPlace)
	asp.End()
	if err == nil {
		err = planErr
	}
	return len(admitted), err
}

// enact is the write's structures item: admitted records into the
// histogram, the index and the archive, in stream order. A delete followed
// by the insert of the same object is one re-report — one histogram pass
// (Move) and one index descent (Update); inPlace counts those rewritten in
// their index leaf. Inserts alone into an empty index are packed by STR bulk
// loading, roughly an order of magnitude faster than one at a time.
func (s *Server) enact(updates []motion.Update) (reReports, inPlace int64, err error) {
	if s.index.Len() == 0 && len(updates) > 0 &&
		!slices.ContainsFunc(updates, func(u motion.Update) bool { return u.Kind != motion.Insert }) {
		states := make([]motion.State, len(updates))
		for i, u := range updates {
			s.hist.Insert(u.State)
			states[i] = u.State
		}
		return 0, 0, s.index.BulkLoad(states)
	}
	for k := 0; k < len(updates); k++ {
		u := updates[k]
		switch {
		case u.Kind == motion.Insert:
			s.hist.Insert(u.State)
			s.index.Insert(u.State)
			continue
		case k+1 < len(updates) && updates[k+1].Kind == motion.Insert && updates[k+1].State.ID == u.State.ID:
			k++
			s.hist.Move(u.State, u.At, updates[k].State)
			found, placed := s.index.Update(u.State, updates[k].State)
			if !found {
				return reReports, inPlace, fmt.Errorf("core: object %d missing from the index", u.State.ID)
			}
			reReports++
			if placed {
				inPlace++
			}
		default:
			s.hist.Delete(u.State, u.At)
			if !s.index.Delete(u.State) {
				return reReports, inPlace, fmt.Errorf("core: object %d missing from the index", u.State.ID)
			}
		}
		if s.hst != nil && u.At > u.State.Ref { // the delete's segment ends
			if err := s.hst.Record(history.Segment{State: u.State, From: u.State.Ref, To: u.At}); err != nil {
				return reReports, inPlace, err
			}
		}
	}
	return reReports, inPlace, nil
}

// Load inserts the initial object states at the current clock as one write.
// It bumps the epoch even when a duplicate ID stops it.
func (s *Server) Load(states []motion.State) error {
	inserts := make([]motion.Update, len(states))
	for i, st := range states {
		inserts[i] = motion.NewInsert(st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1)
	_, err := s.write(s.Now(), inserts, nil)
	return err
}

// Tick advances server time to now and applies the tick's update stream as
// one write. The epoch is bumped once the clock check passes, so cached
// answers never survive a partial tick; a tick moving time backwards
// changes nothing and leaves the epoch alone.
func (s *Server) Tick(now motion.Tick, updates []motion.Update) error {
	return s.TickTraced(now, updates, nil)
}

// TickTraced is Tick recording the write's "plan" and "apply" spans under
// sp (nil traces nothing and allocates nothing).
func (s *Server) TickTraced(now motion.Tick, updates []motion.Update, sp *telemetry.Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.Now(); now < cur {
		return fmt.Errorf("core: time moved backwards: %d < %d", now, cur)
	}
	s.epoch.Add(1)
	s.now.Store(int64(now))
	s.hist.Advance(now)
	s.index.SetNow(now)
	if s.surf != nil {
		s.surf.Advance(now)
	}
	_, err := s.write(now, updates, sp)
	return err
}

// Apply applies one update record between ticks: ApplyBatch of one.
func (s *Server) Apply(u motion.Update) error {
	return s.ApplyBatch([]motion.Update{u})
}

// ApplyBatch applies update records between ticks, at the current clock, as
// one write: a query sees all of its admitted prefix or none of it. The
// epoch is bumped iff a record was admitted.
func (s *Server) ApplyBatch(updates []motion.Update) error {
	return s.ApplyBatchTraced(updates, nil)
}

// ApplyBatchTraced is ApplyBatch recording the write's "plan" and "apply"
// spans under sp (nil traces nothing and allocates nothing).
func (s *Server) ApplyBatchTraced(updates []motion.Update, sp *telemetry.Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.write(s.Now(), updates, sp)
	if n > 0 {
		s.epoch.Add(1)
	}
	return err
}
