// Command marchd serves the march generator and fault simulator as a
// long-lived HTTP JSON service: an async job engine with a bounded worker
// pool for generation, a content-addressed LRU result cache, structured
// request logging, /healthz and /metrics. See DESIGN.md §8 and the README
// quick-start for the API.
//
// Campaigns: with -data pointing at a durable directory, POST /v1/campaigns
// runs batch sweeps through the campaign engine (internal/campaign); an
// interrupted campaign resumes from its checkpoint on re-POST, across
// restarts of the daemon.
//
// Overload (DESIGN.md §15): an admission controller shapes traffic by
// request class — expensive cold generates/optimizes/campaigns shed first
// with 429 + Retry-After while cache hits, library reads and job polling
// stay green; /healthz reports ok|degraded|overloaded with reasons. With
// -data (or -cache-dir) the result cache persists and warm-starts, so a
// restarted node serves its working set immediately.
//
// Cluster mode (DESIGN.md §13): -coordinator additionally serves the
// distributed campaign fabric under /v1/fabric/*, leasing shard ranges of
// campaigns submitted to POST /v1/fabric/campaigns out to peers; -join URL
// turns this instance into a fabric worker pulling leases from that
// coordinator (the two can be combined — a coordinator that also works).
//
// Usage:
//
//	marchd -addr :8080
//	marchd -addr 127.0.0.1:0 -workers 4 -cache 256
//	marchd -addr :8080 -data /var/lib/marchd/campaigns
//	marchd -addr :8080 -data /var/lib/marchd/campaigns -coordinator
//	marchd -addr :8081 -join http://coordinator:8080
//
// Shutdown: SIGINT/SIGTERM stops accepting connections, drains in-flight
// jobs up to -drain-timeout, and exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"marchgen/internal/buildinfo"
	"marchgen/internal/fabric"
	"marchgen/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("workers", 0, "generation worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "job queue depth (a full queue answers 503)")
		cacheSize    = flag.Int("cache", 128, "result cache entries (content-addressed LRU)")
		retain       = flag.Int("retain", 512, "finished jobs kept pollable before eviction")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "maximum per-job generation deadline")
		syncTimeout  = flag.Duration("sync-timeout", 60*time.Second, "request timeout of the synchronous endpoints")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain window for in-flight jobs")
		dataDir      = flag.String("data", "", "campaign store root (default: marchd-campaigns under the OS temp dir)")
		cacheDir     = flag.String("cache-dir", "", "persistent result-cache directory for warm restarts (default: <data>/resultcache when -data is set; empty -data disables persistence)")
		admitTarget  = flag.Duration("admit-target", 200*time.Millisecond, "admission control: CoDel queue-wait target (sustained waits above it shed load with 429)")
		admitIvl     = flag.Duration("admit-interval", time.Second, "admission control: CoDel observation window")
		campaigns    = flag.Int("campaigns", 2, "maximum concurrently running campaigns")
		chaos503     = flag.Int("chaos-503", 0, "TESTING: answer the first N /v1/ requests with 503 + Retry-After: 0 (exercises client retry paths)")
		coordinator  = flag.Bool("coordinator", false, "serve the distributed campaign fabric (/v1/fabric/*) from this instance")
		joinURL      = flag.String("join", "", "coordinator URL to join as a fabric worker (e.g. http://host:8080)")
		fabricLease  = flag.Int("fabric-lease", 4, "coordinator: shards per fabric lease grant")
		fabricTTL    = flag.Duration("fabric-ttl", 10*time.Second, "coordinator: fabric lease heartbeat deadline")
		quiet        = flag.Bool("quiet", false, "disable the per-request log")
		version      = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "marchd")
		return
	}

	logger := log.New(os.Stderr, "marchd: ", log.LstdFlags|log.Lmicroseconds)
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	// Cache persistence is opt-in: an explicit -cache-dir wins; otherwise a
	// durable -data root implies <data>/resultcache (a node with durable
	// campaign storage should also warm-start its working set).
	persistDir := *cacheDir
	if persistDir == "" && *dataDir != "" {
		persistDir = *dataDir + "/resultcache"
	}

	srv := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cacheSize,
		RetainJobs:        *retain,
		JobTimeout:        *jobTimeout,
		SyncTimeout:       *syncTimeout,
		AdmitTarget:       *admitTarget,
		AdmitInterval:     *admitIvl,
		CacheDir:          persistDir,
		DataDir:           *dataDir,
		MaxCampaigns:      *campaigns,
		Coordinator:       *coordinator,
		FabricLeaseShards: *fabricLease,
		FabricLeaseTTL:    *fabricTTL,
		Logger:            reqLogger,
	})

	handler := srv.Handler()
	if *chaos503 > 0 {
		logger.Printf("chaos: first %d /v1/ requests will answer 503", *chaos503)
		handler = chaosHandler(handler, int64(*chaos503), logger)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The resolved address is announced before serving so wrappers (the
	// smoke test, orchestrators) can bind to port 0 and scrape the port.
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Fabric worker mode: pull shard leases from the coordinator until
	// shutdown. A permanent rejection (version skew, bad URL) is fatal —
	// an instance asked to work that cannot is misconfigured, and failing
	// loud beats idling silently.
	workerErr := make(chan error, 1)
	if *joinURL != "" {
		w := &fabric.Worker{
			Coordinator: *joinURL,
			Name:        ln.Addr().String(),
			Logf:        logger.Printf,
		}
		logger.Printf("joining fabric coordinator %s", *joinURL)
		go func() { workerErr <- w.Run(ctx) }()
	}

	code := 0
	select {
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	case err := <-workerErr:
		if err != nil && !errors.Is(err, context.Canceled) {
			logger.Printf("fabric worker: %v", err)
			code = 1
		}
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	logger.Printf("shutdown signal received; draining (window %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()

	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("job drain: %v", err)
		code = 1
	}
	if code == 0 {
		logger.Printf("drained cleanly")
	}
	fmt.Fprintln(os.Stderr, "marchd: exit", code)
	os.Exit(code)
}

// chaosHandler is the -chaos-503 testing aid: the first n requests to the
// API surface (paths under /v1/) are answered 503 with Retry-After: 0,
// everything after — and /healthz, /metrics at all times — passes through.
// It exercises exactly the backpressure answer a full job queue produces,
// so retrying clients (marchctl, scripts) can be proven against a live
// server without loading it.
func chaosHandler(next http.Handler, n int64, logger *log.Logger) http.Handler {
	var remaining atomic.Int64
	remaining.Store(n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") && remaining.Add(-1) >= 0 {
			logger.Printf("chaos: injected 503 on %s %s", r.Method, r.URL.Path)
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"chaos: injected 503"}`)
			return
		}
		next.ServeHTTP(w, r)
	})
}
