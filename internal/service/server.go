// Package service implements marchd: a long-lived HTTP JSON service that
// exposes the march generator and fault simulator as a shared workload.
//
// Architecture (DESIGN.md §8):
//
//   - Generation requests are asynchronous: POST /v1/generate enqueues a
//     job on a bounded worker pool and returns a job id; GET /v1/jobs/{id}
//     polls status and result, DELETE cancels. Every job carries a
//     per-job deadline via context (GenerateContext), so stuck work cannot
//     pin a worker forever.
//   - Results are content-addressed: an LRU cache keyed on the SHA-256 of
//     the canonical fault list + Options encoding serves repeated requests
//     in O(1) with byte-identical responses, and identical in-flight
//     requests are deduplicated onto one job.
//   - Simulation and detection are synchronous (they are orders of
//     magnitude cheaper than generation thanks to the compiled schedules of
//     internal/sim) with a request-scoped timeout.
//   - Observability: structured request logging, /healthz, and /metrics
//     (request/cache/job counters plus a generation latency histogram).
//
// Shutdown is graceful: Server.Shutdown stops accepting jobs, drains the
// queue and the in-flight work, and only cancels what remains once the
// drain window expires.
package service

import (
	"context"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"marchgen/internal/fabric"
)

// Config sizes the service.
type Config struct {
	// Workers is the generation worker pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs; a full
	// queue fails fast with HTTP 503. 0 means 64.
	QueueDepth int
	// CacheSize bounds the result cache entries; 0 means 128.
	CacheSize int
	// RetainJobs bounds how many terminal jobs stay pollable; 0 means 512.
	RetainJobs int
	// JobTimeout caps every generation job's deadline; 0 means 5 minutes.
	JobTimeout time.Duration
	// SyncTimeout is the request-scoped timeout of the synchronous
	// endpoints (simulate, detects); 0 means 60 seconds.
	SyncTimeout time.Duration
	// AdmitTarget is the CoDel queue-wait target of the admission
	// controller: sustained queue waits above it put the service under
	// pressure. 0 means 200ms.
	AdmitTarget time.Duration
	// AdmitInterval is the CoDel observation window: waits must stay above
	// target for a full interval before the controller starts shedding on
	// estimated wait. 0 means 1s.
	AdmitInterval time.Duration
	// CacheDir, when set, makes the result cache write-through persistent
	// rooted at this directory and warm-starts the LRU from it at boot;
	// "" keeps the cache memory-only.
	CacheDir string
	// DataDir is the durable root of the campaign result stores (one
	// subdirectory per campaign); "" means a "marchd-campaigns" directory
	// under the OS temp dir.
	DataDir string
	// MaxCampaigns bounds concurrently running campaigns; 0 means 2.
	MaxCampaigns int
	// CampaignWorkers bounds concurrent shards per campaign; 0 means
	// GOMAXPROCS.
	CampaignWorkers int
	// Coordinator enables the distributed campaign fabric (DESIGN.md §13):
	// the /v1/fabric/* endpoints lease shard ranges of submitted campaigns
	// to peer marchd workers and merge their results into the same store
	// root the local campaign engine uses.
	Coordinator bool
	// FabricLeaseShards bounds shards per fabric lease; 0 means 4.
	FabricLeaseShards int
	// FabricLeaseTTL is the fabric lease heartbeat deadline; 0 means 10s.
	FabricLeaseTTL time.Duration
	// Logger receives the structured request log; nil disables logging.
	Logger *log.Logger
}

func (c Config) dataDir() string {
	if c.DataDir == "" {
		return filepath.Join(os.TempDir(), "marchd-campaigns")
	}
	return c.DataDir
}

func (c Config) maxCampaigns() int {
	if c.MaxCampaigns <= 0 {
		return 2
	}
	return c.MaxCampaigns
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) retainJobs() int {
	if c.RetainJobs <= 0 {
		return 512
	}
	return c.RetainJobs
}

func (c Config) jobTimeout() time.Duration {
	if c.JobTimeout <= 0 {
		return 5 * time.Minute
	}
	return c.JobTimeout
}

func (c Config) syncTimeout() time.Duration {
	if c.SyncTimeout <= 0 {
		return 60 * time.Second
	}
	return c.SyncTimeout
}

// Server is the marchd HTTP service: job engine + result cache + metrics
// behind a request-logging handler.
type Server struct {
	cfg       Config
	jobs      *jobEngine
	cache     *resultCache
	admit     *admission
	campaigns *campaignManager
	fabric    *fabric.Coordinator // nil unless Config.Coordinator
	metrics   *metrics
	logger    *log.Logger
	handler   http.Handler

	// inflight deduplicates concurrent generation requests: cache key →
	// job id of the queued/running job computing that key.
	mu       sync.Mutex
	inflight map[string]string
}

// New builds a ready-to-serve marchd instance.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		metrics:  newMetrics(),
		logger:   cfg.Logger,
		inflight: make(map[string]string),
	}
	if cfg.CacheDir != "" {
		var logf func(string, ...any)
		if cfg.Logger != nil {
			logf = cfg.Logger.Printf
		}
		if err := s.cache.enablePersist(cfg.CacheDir, logf); err != nil && cfg.Logger != nil {
			// A broken cache directory degrades to a memory-only cache; it
			// must never stop the service from coming up.
			cfg.Logger.Printf("%v (cache persistence disabled)", err)
		}
	}
	s.admit = newAdmission(cfg.workers(), cfg.queueDepth(), cfg.maxCampaigns(), cfg.AdmitTarget, cfg.AdmitInterval)
	s.jobs = newJobEngine(cfg.workers(), cfg.queueDepth(), cfg.jobTimeout(), cfg.retainJobs())
	s.jobs.onStart = func(j *job) {
		snap := j.snapshot(false)
		s.admit.started(j.class, snap.Started.Sub(snap.Created))
	}
	s.jobs.onTerminal = func(j *job) {
		snap := j.snapshot(false)
		s.admit.finished(j.class, !snap.Started.IsZero(), snap.Status == JobDone)
		s.metrics.jobTerminal(snap.Status)
		s.clearInflight(j.id)
	}
	s.jobs.onPanic = func() {
		s.metrics.panicked()
		if s.logger != nil {
			s.logger.Printf("panic contained in generation job (see the job's error for the stack)")
		}
	}
	s.campaigns = newCampaignManager(cfg.dataDir(), cfg.maxCampaigns(), cfg.CampaignWorkers)
	s.campaigns.onTerminal = s.metrics.campaignTerminal

	mux := http.NewServeMux()
	s.route(mux, "POST /v1/generate", s.handleGenerate)
	s.route(mux, "POST /v1/verify", s.handleVerify)
	s.route(mux, "POST /v1/optimize", s.handleOptimize)
	s.route(mux, "POST /v1/diagnose", s.handleDiagnose)
	s.route(mux, "POST /v1/simulate", s.timeout(s.handleSimulate))
	s.route(mux, "POST /v1/detects", s.timeout(s.handleDetects))
	s.route(mux, "GET /v1/library", s.handleLibrary)
	s.route(mux, "GET /v1/faultlists", s.handleFaultLists)
	s.route(mux, "GET /v1/jobs/{id}", s.handleJobGet)
	s.route(mux, "GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route(mux, "DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.route(mux, "POST /v1/campaigns", s.handleCampaignSubmit)
	s.route(mux, "GET /v1/campaigns", s.handleCampaignList)
	s.route(mux, "GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.route(mux, "GET /v1/campaigns/{id}/results", s.handleCampaignResults)
	s.route(mux, "DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	if cfg.Coordinator {
		fcfg := fabric.Config{
			Root:        cfg.dataDir(),
			LeaseShards: cfg.FabricLeaseShards,
			LeaseTTL:    cfg.FabricLeaseTTL,
		}
		if s.logger != nil {
			fcfg.Logf = s.logger.Printf
		}
		s.fabric = fabric.NewCoordinator(fcfg)
		s.route(mux, "POST /v1/fabric/join", s.fabric.HandleJoin)
		s.route(mux, "POST /v1/fabric/lease", s.fabric.HandleLease)
		s.route(mux, "POST /v1/fabric/heartbeat", s.fabric.HandleHeartbeat)
		s.route(mux, "POST /v1/fabric/complete", s.fabric.HandleComplete)
		s.route(mux, "POST /v1/fabric/campaigns", s.fabric.HandleSubmit)
		s.route(mux, "GET /v1/fabric/campaigns/{id}", s.fabric.HandleSession)
		s.route(mux, "GET /v1/fabric/status", s.fabric.HandleStatus)
	}
	s.route(mux, "GET /healthz", s.handleHealthz)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.handler = s.logging(mux)
	return s
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the job engine and the campaign manager: no new work is
// accepted, in-flight work finishes until ctx expires, then the stragglers
// are canceled (interrupted campaigns keep their last checkpoint and are
// resumable). The HTTP listener itself is the caller's to close
// (net/http.Server owns connection draining; this owns work draining).
func (s *Server) Shutdown(ctx context.Context) error {
	jobErr := s.jobs.Shutdown(ctx)
	campErr := s.campaigns.Shutdown(ctx)
	if s.fabric != nil {
		s.fabric.Shutdown()
	}
	if jobErr != nil {
		return jobErr
	}
	return campErr
}

// route registers a handler and counts its requests under the route's
// pattern (stable, bounded-cardinality metric keys — never raw paths).
// Every route runs behind panic containment: a panicking handler answers
// 500 with a JSON error body (if the status line is still ours to write),
// is logged with its stack, and shows up in /metrics as panics_total —
// one poisoned request must never take the listener down. Response
// encode failures recorded by writeJSON are logged and counted here too.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					// net/http's own abort protocol (client gone): not ours
					// to contain.
					panic(rec)
				}
				s.metrics.panicked()
				if s.logger != nil {
					s.logger.Printf("panic serving %s: %v\n%s", pattern, rec, debug.Stack())
				}
				if !sw.wroteHeader {
					writeError(sw, http.StatusInternalServerError, "internal error: handler panicked")
				} else {
					// The status line is out; all we can do is stop the body
					// mid-stream so the client sees a broken response, not a
					// silently truncated-but-200 one.
					sw.status = http.StatusInternalServerError
				}
			}()
			h(sw, r)
		}()
		if sw.encodeErr != nil {
			s.metrics.encodeError()
			if s.logger != nil {
				s.logger.Printf("response encode error on %s (status %d already sent): %v", pattern, sw.status, sw.encodeErr)
			}
		}
		s.metrics.request(pattern, sw.status)
	}))
}

// timeout wraps a synchronous handler with the request-scoped timeout.
func (s *Server) timeout(h http.HandlerFunc) http.HandlerFunc {
	th := http.TimeoutHandler(h, s.cfg.syncTimeout(), `{"error":"request timed out"}`)
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	}
}

// logging emits one structured line per request.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.logger.Printf("method=%s path=%s status=%d bytes=%d dur=%s remote=%s",
			r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start).Round(time.Microsecond), r.RemoteAddr)
	})
}

// statusWriter captures the response status and size for logs and
// metrics, whether the status line has been written (panic containment
// must not write a second one), and any JSON encode error writeJSON hit
// after the status line went out.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
	encodeErr   error
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// recordEncodeError implements the interface writeJSON reports dropped
// response bodies through.
func (w *statusWriter) recordEncodeError(err error) { w.encodeErr = err }

// headerWritten implements the interface writeJSON consults before
// emitting a status line, so it can never write a second one.
func (w *statusWriter) headerWritten() bool { return w.wroteHeader }

// lookupOrSubmit deduplicates concurrent generation requests on their
// cache key: if a live job is already computing the key it is returned
// (created=false); otherwise fn is submitted as a new job of the given
// admission class. The server lock is held across the submit so two
// concurrent misses cannot both spawn work for one key.
//
// Admission is checked here, after the dedup lookup: piggybacking on a
// job that is already admitted costs the service nothing, so it is never
// shed. Only genuinely new work spends an admission slot. A shed is
// returned as a *shedError (HTTP 429 + Retry-After upstream).
func (s *Server) lookupOrSubmit(class admitClass, key string, timeout time.Duration, fn jobFunc) (*job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.inflight[key]; ok {
		if j, live := s.jobs.Get(id); live && !j.snapshot(false).Status.Terminal() {
			return j, false, nil
		}
		delete(s.inflight, key)
	}
	if shed := s.admit.admit(class); shed != nil {
		s.metrics.shed(string(class))
		return nil, false, shed
	}
	j, err := s.jobs.Submit(class, timeout, fn)
	if err != nil {
		// The engine refused after admission said yes (queue tombstones, or
		// a drain that began in between): hand the slot straight back.
		s.admit.finished(class, false, false)
		return nil, false, err
	}
	s.inflight[key] = j.id
	return j, true, nil
}

// clearInflight drops the dedup entry owned by the given job id.
func (s *Server) clearInflight(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.inflight {
		if v == id {
			delete(s.inflight, k)
		}
	}
}
