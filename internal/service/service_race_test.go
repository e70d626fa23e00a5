package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdr/internal/core"
	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/wire"
)

// TestRaceUpdatesQueryStats drives one Service with a ticking writer beside
// a client of every other route: snapshot queries, stats polls and /metrics
// scrapes, and between-tick applies. It exists for `go test -race`
// (scripts/check.sh runs it there): no service lock spans a request, so each
// handler meets the tick on the engine's lock alone, and a scrape reads each
// subsystem's own counters (the buffer pool's and the trace store's leaf
// locks, the worker pool's slots) while the traffic moves them; this
// workload makes the detector see every pairing. The writer is the single
// clock owner, so Now stays monotonic. Every reply must succeed: the queries
// ask at the default at=now, which a tick landing between resolve and run
// would turn into an error if the service did not re-resolve.
func TestRaceUpdatesQueryStats(t *testing.T) {
	svc, ts := testService(t)
	g := loadWorkload(t, svc, 800)

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
	errs := make(chan error, queryWorkers+statsWorkers+2)
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
	// Snapshot queries with both served methods, at the default at=now.
	for w := 0; w < queryWorkers; w++ {
		method := []string{"pa", "fr"}[w%2]
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

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRaceConcurrentIntervalQueries hammers the readers of one snapshot
// answer at once, with the result cache off and on: FR snapshot queries at
// one timestamp, FR interval queries that start at it, each fanning its
// per-timestamp snapshots out to the engine's worker pool.
// The readers start once the tick has moved the clock, so with the cache on
// they all read the one region the cache stores, and under -race any holder
// that wrote to it would be caught. Every client of a request must get the
// same answer bytes, and the cache-on answers must be the cache-off ones
// byte for byte.
func TestRaceConcurrentIntervalQueries(t *testing.T) {
	const (
		clients = 3
		ahead   = 2
	)
	var cacheOff map[string]string
	for _, cacheBytes := range []int64{0, 64 << 20} {
		svc, ts := testServiceWith(t, func(cfg *core.Config) {
			cfg.Workers = 4
			cfg.CacheBytes = cacheBytes
		})
		g := loadWorkload(t, svc, 800)
		rho := strconv.FormatFloat(core.RelativeThreshold(800, 3, svc.Engine().Config().Area), 'g', -1, 64)

		ups := g.Advance()
		now := g.Now()
		tick := updatesBody(now, ups)
		at := now + ahead
		query := fmt.Sprintf("/v1/query?method=fr&rho=%s&l=60&at=%d", rho, at)
		paths := map[string]string{
			"snapshot": query,
			"interval": fmt.Sprintf("%s&until=%d", query, at+2),
		}

		var mu sync.Mutex
		answers := make(map[string][]string)
		var wg sync.WaitGroup
		// record keeps one client's answer bytes: the updates reply whole, a
		// query reply's region fields (its timings vary).
		record := func(name string, body []byte, err error) {
			if err == nil && name != "tick" {
				var a struct{ Rects, Area json.RawMessage }
				if err = json.Unmarshal(body, &a); err == nil {
					body = bytes.Join([][]byte{a.Rects, a.Area}, []byte(" "))
				}
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			answers[name] = append(answers[name], string(body))
			mu.Unlock()
		}
		// The readers wait for the tick to move the clock, or to fail: a
		// failed tick never moves it, and reports itself.
		tickDone := make(chan struct{})
		waitTick := func() {
			for svc.Engine().Now() < now {
				select {
				case <-tickDone:
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
		}
		send := func(name, method, path string, body []byte) {
			defer wg.Done()
			if name != "tick" {
				waitTick()
			}
			hr, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
			if err != nil {
				record(name, nil, err)
				return
			}
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				record(name, nil, err)
				return
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, reply)
			}
			record(name, reply, err)
		}
		for name, path := range paths {
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go send(name, http.MethodGet, path, nil)
			}
		}
		wg.Add(1)
		go func() {
			defer close(tickDone)
			send("tick", http.MethodPost, "/v1/updates", tick)
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		for name, got := range answers {
			for c := 1; c < len(got); c++ {
				if got[c] != got[0] {
					t.Errorf("cache %d B, %s: client %d's answer differs from client 0's", cacheBytes, name, c)
				}
			}
			if cacheOff != nil && got[0] != cacheOff[name] {
				t.Errorf("%s: the cache-on answer differs from the cache-off one", name)
			}
		}
		if cacheOff == nil {
			cacheOff = make(map[string]string)
			for name, got := range answers {
				cacheOff[name] = got[0]
			}
			continue
		}
		// After the tick, the interval clients ask for 3 timestamps and the
		// snapshot clients for one: each of the 3 keys is evaluated once,
		// every other lookup reads what that evaluation stored.
		lookups := clients + 3*clients
		if st := svc.Engine().CacheStats(); st.Hits+st.Shared != int64(lookups-3) {
			t.Errorf("cache stats %+v: want %d hits and sharers of the tick's %d lookups", st, lookups-3, lookups)
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
	svc, ts := testService(t)
	g := loadWorkload(t, svc, 1500)

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
