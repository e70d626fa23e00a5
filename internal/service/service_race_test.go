package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

// TestRaceUpdatesQueryStats drives one Service with concurrent update
// traffic, snapshot queries and stats polls. It exists for `go test -race`
// (scripts/check.sh runs it there): the handlers share srv/mon behind
// Service.mu, and this workload makes the detector see every pairing of the
// write path against both read paths. The updates goroutine is the single
// clock owner, so Now stays monotonic; queries and stats race freely
// against it.
func TestRaceUpdatesQueryStats(t *testing.T) {
	_, ts := testService(t)
	g := loadWorkload(t, ts, 800)

	const (
		queryWorkers = 4
		statsWorkers = 2
		iters        = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, queryWorkers+statsWorkers+1)

	// Writer: advance the clock and push location updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ups := g.Advance()
			var ur UpdatesRequest
			ur.Now = g.Now()
			for _, u := range ups {
				kind := wire.KindInsert
				if u.Kind == motion.Delete {
					kind = wire.KindDelete
				}
				ur.Updates = append(ur.Updates, wire.FromState(kind, u.State, u.At))
			}
			body, _ := json.Marshal(ur)
			resp, err := http.Post(ts.URL+"/v1/updates", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("updates status %d", resp.StatusCode)
				return
			}
		}
	}()

	// Readers: snapshot queries with both cheap methods.
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			method := "pa"
			if w%2 == 1 {
				method = "dh"
			}
			for i := 0; i < iters; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/query?method=%s&varrho=%d&l=60", ts.URL, method, 1+w%3))
				if err != nil {
					errs <- err
					return
				}
				var qr QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("query decode: %w", err)
					return
				}
			}
		}(w)
	}

	// Readers: stats polls.
	for w := 0; w < statsWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					errs <- err
					return
				}
				var sr StatsResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("stats decode: %w", err)
					return
				}
				if sr.Objects == 0 {
					errs <- fmt.Errorf("stats reported zero objects mid-traffic")
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRaceConcurrentIntervalQueries hammers the parallel interval path from
// several HTTP clients at once: every handler holds the service read lock
// simultaneously, and each interval query fans its per-timestamp snapshots
// out to the engine's worker pool. All clients must get the same answer —
// the engine is quiescent (no updates), so any divergence would mean the
// parallel merge or the shared scratch reuse is racy.
func TestRaceConcurrentIntervalQueries(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.HistM = 50
	cfg.L = 60
	cfg.Workers = 4
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	loadWorkload(t, ts, 800)

	const clients = 6
	answers := make([]QueryResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query?method=fr&varrho=3&l=60&at=now&until=now%2B4")
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("interval query status %d", resp.StatusCode)
				return
			}
			errs[c] = json.NewDecoder(resp.Body).Decode(&answers[c])
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for c := 1; c < clients; c++ {
		if answers[c].Area != answers[0].Area || len(answers[c].Rects) != len(answers[0].Rects) {
			t.Errorf("client %d answer diverged: area %g (%d rects) vs %g (%d rects)",
				c, answers[c].Area, len(answers[c].Rects), answers[0].Area, len(answers[0].Rects))
		}
	}
}

// TestRaceEncodeWhileTicking: a query reply is encoded after the service lock
// is released, out of a pooled buffer the middleware hands to the socket and
// then back to the pool — so ticks now run while replies are being formatted,
// and buffers change hands between concurrent requests. Every reply must
// still arrive whole and self-consistent: the announced length, valid JSON,
// and an area that is exactly the sum of the rectangles it carries (a
// snapshot's are disjoint), which a buffer recycled a write too early, or a
// region shared with the engine, would break.
func TestRaceEncodeWhileTicking(t *testing.T) {
	_, ts := testService(t)
	g := loadWorkload(t, ts, 1500)

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			method := []string{"fr", "pa"}[w%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/query?method=%s&varrho=%d&l=60&at=now%%2B%d", ts.URL, method, 1+i%3, i%5))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var qr QueryResponse
				switch {
				case err != nil:
				case resp.StatusCode != http.StatusOK:
					err = fmt.Errorf("query status %d: %s", resp.StatusCode, body)
				case int64(len(body)) != resp.ContentLength:
					err = fmt.Errorf("%d-byte body under Content-Length %d", len(body), resp.ContentLength)
				default:
					err = json.Unmarshal(body, &qr)
				}
				if err != nil {
					errs <- err
					return
				}
				var sum float64
				for _, r := range qr.Rects {
					sum += geom.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY).Area()
				}
				if sum != qr.Area {
					errs <- fmt.Errorf("%s reply: area %v, its %d rectangles sum to %v", method, qr.Area, len(qr.Rects), sum)
					return
				}
			}
		}(w)
	}
	advanceTicks(t, ts, g, 8)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
