// Command pdrserve runs the PDR engine as an HTTP service (see
// internal/service for the API). It can start empty or pre-load a workload
// file produced by pdrgen.
//
// Usage:
//
//	pdrserve -addr :8080 [-data workload.jsonl] [-l 30] [-histm 100]
//	         [-workers 0] [-shards 1] [-cache-bytes 0]
//	         [-slow-query 250ms] [-slow-query-max 10000] [-trace-sample 1.0]
//	         [-trace-buffer 256] [-debug-addr localhost:6060]
//
// Example session:
//
//	pdrgen -n 20000 -ticks 10 -o wl.jsonl
//	pdrserve -data wl.jsonl &
//	curl 'localhost:8080/v1/query?method=fr&varrho=3&l=30&at=now%2B10'
//	curl 'localhost:8080/metrics'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"pdr/internal/core"
	"pdr/internal/service"
	"pdr/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		data      = flag.String("data", "", "optional workload file from pdrgen to pre-load")
		l         = flag.Float64("l", 30, "fixed neighborhood edge for the PA surfaces")
		histM     = flag.Int("histm", 100, "density histogram resolution per axis")
		workers   = flag.Int("workers", 0, "query worker-pool size: 0 = GOMAXPROCS, 1 = sequential")
		shards    = flag.Int("shards", 1, "space partitions (1-64): writes lock only the partitions that hold the object, so more of them let writers to different parts of the plane proceed together; answers are identical at every setting (see docs/PERFORMANCE.md \"Sharding\")")
		cacheB    = flag.Int64("cache-bytes", 0, "result-cache budget in bytes: repeated/interval/monitor queries reuse per-timestamp answers until the next update (0 disables)")
		slowQuery = flag.Duration("slow-query", 0, "log requests slower than this as JSON lines on stderr (0 disables)")
		slowMax   = flag.Int64("slow-query-max", 0, "cap the slow-query log at this many lines; further slow requests only count on pdr_http_slow_log_dropped_total (0 = unbounded)")
		traceRate = flag.Float64("trace-sample", 1.0, "head-sampling probability for request traces in [0,1]; sampled requests carry X-Pdr-Trace-Id and appear under /debug/traces")
		traceBuf  = flag.Int("trace-buffer", service.DefaultTraceBuffer, "in-memory trace store capacity in traces (0 disables tracing entirely)")
		debugAddr = flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (e.g. localhost:6060)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.L = *l
	cfg.HistM = *histM
	cfg.Workers = *workers
	cfg.Shards = *shards
	cfg.CacheBytes = *cacheB
	cfg.KeepHistory = true // the /v1/past audit endpoint needs the archive
	var opts []service.Option
	if *slowQuery > 0 {
		opts = append(opts, service.WithSlowQueryLog(*slowQuery, os.Stderr))
	}
	if *slowMax > 0 {
		opts = append(opts, service.WithSlowQueryCap(*slowMax))
	}
	opts = append(opts, service.WithTracing(*traceRate, *traceBuf))
	svc, err := service.New(cfg, opts...)
	if err != nil {
		log.Fatal("pdrserve: ", err)
	}
	if *data != "" {
		f, err := os.Open(*data)
		if err != nil {
			log.Fatal("pdrserve: ", err)
		}
		n, err := wire.Replay(f, svc.Engine())
		f.Close()
		if err != nil {
			log.Fatal("pdrserve: ", err)
		}
		fmt.Fprintf(os.Stderr, "pdrserve: pre-loaded %d records\n", n)
	}
	if *debugAddr != "" {
		// pprof lives on its own mux and listener so profiling endpoints are
		// never reachable through the public API address.
		//
		// lint:ignore noleak process-lifetime daemon: the debug listener
		// serves until the process exits and log.Fatal ends it on error.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			dbg := &http.Server{Addr: *debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			fmt.Fprintf(os.Stderr, "pdrserve: pprof on %s/debug/pprof/\n", *debugAddr)
			log.Fatal("pdrserve: debug server: ", dbg.ListenAndServe())
		}()
	}
	fmt.Fprintf(os.Stderr, "pdrserve: listening on %s\n", *addr)
	log.Fatal(svc.ListenAndServe(*addr))
}
