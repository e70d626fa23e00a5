package core

import (
	"fmt"
	"sync/atomic"

	"pdr/internal/dh"
	"pdr/internal/history"
	"pdr/internal/motion"
	"pdr/internal/storage"
	"pdr/internal/tprtree"
)

// partition is one territory's structures: the histogram and archive of the
// objects whose primary it is, and a TPR-tree (over its own buffer pool) of
// those objects plus the replicas of straddlers from other territories. It
// has no lock of its own: Server.pmu[i] guards partition i.
type partition struct {
	hist  *dh.Histogram
	pool  *storage.Pool
	index *tprtree.Tree
	hst   *history.Store // nil unless Config.KeepHistory
	// objects counts the partition's primaries and replicas its index-only
	// registrations; atomic so gauges read them without the partition lock.
	objects, replicas atomic.Int64
}

func newPartition(cfg Config) (*partition, error) {
	horizon := cfg.U + cfg.W
	hist, err := dh.New(dh.Config{Area: cfg.Area, M: cfg.HistM, Horizon: horizon})
	if err != nil {
		return nil, err
	}
	p := &partition{hist: hist, pool: storage.NewPool(cfg.BufferPages)}
	p.index, err = tprtree.New(tprtree.Config{Pool: p.pool, Horizon: horizon, PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	if cfg.KeepHistory {
		p.hst, err = history.New(history.Config{Area: cfg.Area, BucketTicks: cfg.U})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// advance moves the partition's clocked structures to now.
func (p *partition) advance(now motion.Tick) {
	p.hist.Advance(now)
	p.index.SetNow(now)
}

// apply enacts an admitted update (see Server.admit) on the partition's
// structures. The primary's histogram, index and archive all learn it; a
// replica registration reaches the index alone, so the per-partition
// summaries stay exactly additive over disjoint primary populations.
func (p *partition) apply(u motion.Update, replica bool) error {
	switch u.Kind {
	case motion.Insert:
		if !replica {
			p.hist.Insert(u.State)
		}
		p.index.Insert(u.State)
	case motion.Delete:
		if !replica {
			p.hist.Delete(u.State, u.At)
		}
		if !p.index.Delete(u.State) {
			return fmt.Errorf("core: object %d missing from the index", u.State.ID)
		}
		if !replica && p.hst != nil && u.At > u.State.Ref {
			return p.hst.Record(history.Segment{State: u.State, From: u.State.Ref, To: u.At})
		}
	}
	return nil
}

// load enacts a batch of admitted inserts: own states enter the histogram
// and the index, replicas the index only. An empty tree is packed by STR bulk
// loading, which is roughly an order of magnitude faster than one-at-a-time
// insertion.
func (p *partition) load(own, replicas []motion.State) error {
	for _, st := range own {
		p.hist.Insert(st)
	}
	if p.index.Len() == 0 {
		return p.index.BulkLoad(append(own, replicas...))
	}
	for _, st := range own {
		p.index.Insert(st)
	}
	for _, st := range replicas {
		p.index.Insert(st)
	}
	return nil
}
