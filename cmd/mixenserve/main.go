// mixenserve answers link-analysis queries over one preprocessed graph via
// HTTP. The graph is loaded and partitioned once at startup; every query
// then runs against the shared immutable engine, batchable queries fusing
// through the Batcher into wide passes. Admission control bounds work in
// flight (excess load is shed with 429 + Retry-After), per-request
// deadlines cancel engine runs cooperatively, and SIGINT/SIGTERM drains
// in-flight queries before exit.
//
//	mixenserve -preset web-skew -addr :8080
//	mixenserve -partition web-skew.mixp -addr :8080   # instant start: mmap, no rebuild
//	curl 'localhost:8080/v1/query?algo=pagerank&top=5'
//	curl 'localhost:8080/v1/query?algo=ppr&sources=1,2,3&timeout=500ms'
//
// With -partition (a .mixp file written by `mixenconvert -partition`) the
// whole preprocessing pipeline is skipped: the file is mapped read-only
// and served in place, page-cache-shared with every other process mapping
// it. /healthz reports the mapped file, its build epoch and baked layout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mixen"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		preset    = flag.String("preset", "", "named dataset (see mixenrun -list)")
		shrink    = flag.Int("shrink", 0, "shrink factor for -preset (0 = full size)")
		edgelist  = flag.String("edgelist", "", "path to a whitespace edge-list file")
		partition = flag.String("partition", "", "mmap a prebuilt .mixp partition (written by mixenconvert -partition) and serve instantly")
		threads   = flag.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")

		maxConc    = flag.Int("max-concurrent", 4, "queries executing at once")
		maxQueue   = flag.Int("max-queue", 16, "queries waiting behind the executing ones before shedding with 429")
		timeout    = flag.Duration("timeout", 2*time.Second, "default per-query deadline (requests may override with timeout=)")
		maxTimeout = flag.Duration("max-timeout", 30*time.Second, "upper bound on any request's deadline")
		maxIters   = flag.Int("max-iters", 1000, "upper bound on any request's iteration budget")
		iters      = flag.Int("iters", 100, "default iteration budget")

		batch     = flag.Int("batch", 8, "batcher max fused width (0 disables batching)")
		batchWait = flag.Duration("batch-wait", 2*time.Millisecond, "longest a query may queue while every run slot is busy (an idle server dispatches at once; queries fuse behind in-flight runs)")

		traceSample = flag.Int("trace-sample", 0, "request tracing: trace 1 in N requests into /debug/traces (1 = every request, 0 = off)")
		traceRing   = flag.Int("trace-ring", 256, "completed traces kept for /debug/traces")
		accessLog   = flag.Bool("access-log", false, "log one structured line per request to stdout")

		cacheSize = flag.Int64("cache-size", 0, "result cache budget in bytes (0 disables caching; exact-mode hits are bit-identical to recomputing)")
		cacheTTL  = flag.Duration("cache-ttl", 0, "cached entry lifetime (0 = 5m default when the cache is on, negative = never expire)")

		grace = flag.Duration("shutdown-grace", 10*time.Second, "drain budget for in-flight queries on SIGINT/SIGTERM")
	)
	flag.Parse()

	if *partition != "" && (*preset != "" || *edgelist != "") {
		fail(fmt.Errorf("specify only one of -partition, -preset, -edgelist"))
	}

	cfg := serverConfig{
		maxConcurrent:  *maxConc,
		maxQueue:       *maxQueue,
		defaultTimeout: *timeout,
		maxTimeout:     *maxTimeout,
		maxIters:       *maxIters,
		defaultIters:   *iters,
		useBatcher:     *batch > 0,
		traceSample:    *traceSample,
		traceRing:      *traceRing,
		cacheBytes:     *cacheSize,
		cacheTTL:       *cacheTTL,
	}
	if *accessLog {
		cfg.accessLog = os.Stdout
	}
	bcfg := mixen.BatcherConfig{MaxBatch: *batch, MaxWait: *batchWait}
	reg := mixen.NewMetricsRegistry()

	var s *server
	engCfg := mixen.Config{Threads: *threads, Collector: reg}
	if *partition != "" {
		me, err := mixen.OpenPartition(*partition, engCfg)
		if err != nil {
			fail(err)
		}
		defer me.Close() // idempotent; the server also closes it on drain
		s = newServerMapped(me, reg, cfg, bcfg)
	} else {
		g, err := loadGraph(*preset, *shrink, *edgelist)
		if err != nil {
			fail(err)
		}
		eng, err := mixen.New(g, engCfg)
		if err != nil {
			fail(err)
		}
		s = newServer(g, eng, reg, cfg, bcfg)
	}
	mixen.PublishExpvar("mixen", reg)
	// One poller goroutine keeps the runtime gauges (goroutines, heap, GC),
	// the worker-pool gauges and the windowed SLO gauges current.
	poller := mixen.StartRuntimePoller(reg, time.Second, schedPoolSampler(reg), s.sampleSLO)
	defer poller.Stop()

	// Both signal handlers are installed BEFORE the listener starts: a
	// client that sees the port answer may signal at once, and a SIGTERM
	// that lands ahead of its handler kills the process instead of
	// draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP re-opens the .mixp partition in place: the new mapping is
	// swapped in atomically and its build epoch invalidates both caches.
	// Requests already running keep their old snapshot until they finish.
	if *partition != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				part, err := s.reloadPartition(*partition, engCfg)
				if err != nil {
					log.Printf("mixenserve: SIGHUP reload failed, keeping current mapping: %v", err)
					continue
				}
				log.Printf("mixenserve: SIGHUP reloaded %s (epoch=%d)", part.File, part.Epoch)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	st := s.state()
	if st.part != nil {
		log.Printf("mixenserve: serving %d nodes / %d edges on %s from mapped partition %s (epoch=%d side=%d max-concurrent=%d max-queue=%d cache=%dB)",
			st.n, st.edges, *addr, st.part.File, st.part.Epoch, st.part.Side, cfg.maxConcurrent, cfg.maxQueue, *cacheSize)
	} else {
		log.Printf("mixenserve: serving %d nodes / %d edges on %s (max-concurrent=%d max-queue=%d cache=%dB)",
			st.n, st.edges, *addr, cfg.maxConcurrent, cfg.maxQueue, *cacheSize)
	}

	select {
	case err := <-errc:
		fail(err) // listener died before any signal
	case <-ctx.Done():
	}
	stop() // second signal kills immediately

	log.Printf("mixenserve: draining (grace %s)", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Stop the listener first so no new connections land, then drain the
	// queries already past admission.
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("mixenserve: listener shutdown: %v", err)
	}
	if err := s.Shutdown(dctx); err != nil {
		log.Printf("mixenserve: drain incomplete: %v", err)
		os.Exit(1)
	}
	log.Printf("mixenserve: drained cleanly")
}

func loadGraph(preset string, shrink int, edgelist string) (*mixen.Graph, error) {
	switch {
	case preset != "" && edgelist != "":
		return nil, fmt.Errorf("specify only one of -preset, -edgelist")
	case preset != "":
		return mixen.Dataset(preset, shrink)
	case edgelist != "":
		f, err := os.Open(edgelist)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mixen.ReadEdgeList(f, 0)
	default:
		return nil, fmt.Errorf("specify -preset or -edgelist")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mixenserve:", err)
	os.Exit(1)
}
