package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

// TestRaceUpdatesQueryStats drives one Service with a ticking writer beside
// a client of every other route: snapshot queries, stats polls and /metrics
// scrapes, between-tick applies, standing-query registration and removal,
// contours and past queries. It exists for `go test -race` (scripts/check.sh
// runs it there): no service lock spans a request, so each handler meets the
// tick on the engine's lock or the monitor's alone, and a scrape reads each
// subsystem's own counters (the buffer pool's and the trace store's leaf
// locks, the worker pool's slots, the monitor's count) while the traffic
// moves them; this workload makes the detector see every pairing. The writer is the single clock owner, so Now stays
// monotonic. Every reply must succeed: the queries and contours ask at the
// default at=now, which a tick landing between resolve and run would turn
// into an error if the service did not re-resolve.
func TestRaceUpdatesQueryStats(t *testing.T) {
	_, ts := testServiceWith(t, func(cfg *core.Config) { cfg.KeepHistory = true })
	g := loadWorkload(t, ts, 800)
	// One tick first, so at=0 is in the past for the /v1/past client.
	advanceTicks(t, ts, g, 1)

	const (
		queryWorkers = 4
		statsWorkers = 2
		iters        = 6
	)
	// do sends one request and returns its reply body, or an error when the
	// status is not want.
	do := func(method, path, body string, want int) ([]byte, error) {
		hr, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			return nil, err
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, reply)
		}
		return reply, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, queryWorkers+statsWorkers+5)
	// client runs iters rounds on its own goroutine and reports the first
	// round that fails.
	client := func(round func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := round(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	get := func(path string) func(int) error {
		return func(int) error {
			_, err := do(http.MethodGet, path, "", http.StatusOK)
			return err
		}
	}

	// Writer: advance the clock and push location updates.
	client(func(int) error {
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
		_, err := do(http.MethodPost, "/v1/updates", string(body), http.StatusOK)
		return err
	})
	// Snapshot queries with both cheap methods, at the default at=now.
	for w := 0; w < queryWorkers; w++ {
		method := []string{"pa", "dh-opt"}[w%2]
		client(get(fmt.Sprintf("/v1/query?method=%s&varrho=%d&l=60", method, 1+w%3)))
	}
	for w := 0; w < statsWorkers; w++ {
		client(func(int) error {
			reply, err := do(http.MethodGet, "/v1/stats", "", http.StatusOK)
			if err != nil {
				return err
			}
			var sr StatsResponse
			if err := json.Unmarshal(reply, &sr); err != nil {
				return err
			}
			if sr.Objects == 0 {
				return fmt.Errorf("stats reported zero objects mid-traffic")
			}
			_, err = do(http.MethodGet, "/metrics", "", http.StatusOK)
			return err
		})
	}
	client(get("/v1/contours?level=0.001&res=16"))
	client(get("/v1/past?varrho=2&l=60&at=0"))
	// Between-tick applies: each inserts an object no tick names and deletes
	// it again.
	client(func(i int) error {
		ins := wire.Record{Kind: wire.KindInsert, ID: 900001 + uint64(i), X: 400, Y: 400, VX: 2, VY: 1}
		del := ins
		del.Kind = wire.KindDelete
		body, _ := json.Marshal(ApplyRequest{Updates: []wire.Record{ins, del}})
		_, err := do(http.MethodPost, "/v1/apply", string(body), http.StatusOK)
		return err
	})
	// Standing queries, registered and removed again while ticks
	// re-evaluate them.
	client(func(int) error {
		reply, err := do(http.MethodPost, "/v1/watch", `{"varrho":2,"l":60,"every":1,"method":"pa"}`, http.StatusOK)
		if err != nil {
			return err
		}
		var wr WatchResponse
		if err := json.Unmarshal(reply, &wr); err != nil {
			return err
		}
		_, err = do(http.MethodDelete, fmt.Sprintf("/v1/watch/%d", wr.ID), "", http.StatusNoContent)
		return err
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRaceConcurrentIntervalQueries hammers the parallel interval path from
// several HTTP clients at once: every handler holds the engine read lock
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

// TestRaceEncodeWhileTicking: a query reply is encoded after the engine lock
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
