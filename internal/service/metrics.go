package service

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"marchgen/internal/fabric"
)

// latencyBuckets are the upper bounds (seconds) of the generation-latency
// histogram. The spread covers the observed range: list2 generates in well
// under a millisecond, list1 in about a second, pathological option sets in
// tens of seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 60}

// metrics is the service's expvar-style instrumentation: monotonic counters
// plus one latency histogram, all behind a single mutex (the handlers touch
// it a handful of times per request; contention is negligible next to a
// simulation). Snapshot renders the whole registry for /metrics.
type metrics struct {
	mu sync.Mutex

	requests map[string]int64 // per route, e.g. "POST /v1/generate"
	statuses map[int]int64    // per response status code

	cacheHits      int64
	cacheMisses    int64 // requests that created a job
	cacheCoalesced int64 // requests merged onto an in-flight job

	jobsSubmitted int64
	jobsDone      int64
	jobsFailed    int64
	jobsCanceled  int64

	campaignsSubmitted   int64
	campaignsDone        int64
	campaignsFailed      int64
	campaignsInterrupted int64

	optimizeRuns        int64 // completed optimizer jobs
	optimizeImproved    int64 // runs whose winner beat the seed's length
	optimizeEvaluations int64 // coverage evaluations, updated live via OnProgress

	diagnoseRuns      int64 // completed diagnosis jobs
	diagnoseLocalized int64 // runs that ended on a singleton candidate set

	panicsTotal  int64 // contained panics: job fns, HTTP handlers
	encodeErrors int64 // response bodies lost after the status line

	genCount   int64
	genSum     float64 // seconds
	genBuckets []int64 // cumulative-style counts per latencyBuckets entry, +Inf last
}

func newMetrics() *metrics {
	return &metrics{
		requests:   make(map[string]int64),
		statuses:   make(map[int]int64),
		genBuckets: make([]int64, len(latencyBuckets)+1),
	}
}

func (m *metrics) request(route string, status int) {
	m.mu.Lock()
	m.requests[route]++
	m.statuses[status]++
	m.mu.Unlock()
}

// cacheOutcome is how an asynchronous request was served.
type cacheOutcome int

const (
	cacheHit       cacheOutcome = iota // answered from the result cache
	cacheMiss                          // created a new job
	cacheCoalesced                     // merged onto the in-flight job for its key
)

// cache counts one asynchronous request by its outcome. Only a miss
// submits a job, so cache_misses always equals jobs_submitted.
func (m *metrics) cache(o cacheOutcome) {
	m.mu.Lock()
	switch o {
	case cacheHit:
		m.cacheHits++
	case cacheMiss:
		m.cacheMisses++
		m.jobsSubmitted++
	case cacheCoalesced:
		m.cacheCoalesced++
	}
	m.mu.Unlock()
}

func (m *metrics) jobTerminal(status JobStatus) {
	m.mu.Lock()
	switch status {
	case JobDone:
		m.jobsDone++
	case JobFailed:
		m.jobsFailed++
	case JobCanceled:
		m.jobsCanceled++
	}
	m.mu.Unlock()
}

func (m *metrics) campaignSubmitted() {
	m.mu.Lock()
	m.campaignsSubmitted++
	m.mu.Unlock()
}

func (m *metrics) campaignTerminal(status string) {
	m.mu.Lock()
	switch status {
	case CampaignDone:
		m.campaignsDone++
	case CampaignFailed:
		m.campaignsFailed++
	case CampaignInterrupted:
		m.campaignsInterrupted++
	}
	m.mu.Unlock()
}

// optimizeProgress adds newly spent coverage evaluations as a running
// search reports them, so /metrics shows live optimizer progress.
func (m *metrics) optimizeProgress(delta int64) {
	m.mu.Lock()
	m.optimizeEvaluations += delta
	m.mu.Unlock()
}

// optimizeDone counts one completed optimizer run.
func (m *metrics) optimizeDone(improved bool) {
	m.mu.Lock()
	m.optimizeRuns++
	if improved {
		m.optimizeImproved++
	}
	m.mu.Unlock()
}

// diagnoseDone counts one completed diagnosis run.
func (m *metrics) diagnoseDone(localized bool) {
	m.mu.Lock()
	m.diagnoseRuns++
	if localized {
		m.diagnoseLocalized++
	}
	m.mu.Unlock()
}

// panicked counts one contained panic (job fn or HTTP handler). A
// non-zero panics_total is an alarm: the process survived, but something
// reached a state the code never should.
func (m *metrics) panicked() {
	m.mu.Lock()
	m.panicsTotal++
	m.mu.Unlock()
}

// encodeError counts one response body lost to a JSON encode failure
// after the status line was already written.
func (m *metrics) encodeError() {
	m.mu.Lock()
	m.encodeErrors++
	m.mu.Unlock()
}

// observeGenerate records one completed generation's wall-clock latency.
func (m *metrics) observeGenerate(d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	m.genCount++
	m.genSum += s
	i := sort.SearchFloat64s(latencyBuckets, s)
	m.genBuckets[i]++
	m.mu.Unlock()
}

// HistogramSnapshot is the wire form of the latency histogram: per-bucket
// counts with their upper bounds in seconds (the last bucket is unbounded).
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	SumSecs float64   `json:"sum_seconds"`
	Bounds  []float64 `json:"bucket_upper_bounds_seconds"`
	Counts  []int64   `json:"bucket_counts"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	Requests map[string]int64 `json:"requests"`
	Statuses map[string]int64 `json:"responses_by_status"`
	// CacheHits, CacheMisses and CacheCoalesced split the asynchronous
	// requests (generate, verify, optimize, diagnose) that reached the
	// cache: answered from it, answered by a new job, or merged onto the
	// job already computing the same key. Misses equal JobsSubmitted.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheEntries   int   `json:"cache_entries"`
	JobsSubmitted  int64 `json:"jobs_submitted"`
	JobsDone       int64 `json:"jobs_done"`
	JobsFailed     int64 `json:"jobs_failed"`
	JobsCanceled   int64 `json:"jobs_canceled"`
	QueueDepth     int   `json:"job_queue_depth"`

	CampaignsSubmitted   int64 `json:"campaigns_submitted"`
	CampaignsDone        int64 `json:"campaigns_done"`
	CampaignsFailed      int64 `json:"campaigns_failed"`
	CampaignsInterrupted int64 `json:"campaigns_interrupted"`

	OptimizeRuns        int64 `json:"optimize_runs"`
	OptimizeImproved    int64 `json:"optimize_improved"`
	OptimizeEvaluations int64 `json:"optimize_evaluations"`

	DiagnoseRuns      int64 `json:"diagnose_runs"`
	DiagnoseLocalized int64 `json:"diagnose_localized"`

	PanicsTotal  int64 `json:"panics_total"`
	EncodeErrors int64 `json:"response_encode_errors"`

	// Pressure is the degrade-ladder level (ok | degraded | overloaded) at
	// snapshot time; ShedsByClass counts admission 429s per request class
	// that has shed any, read from Admission, the controller's live
	// per-class occupancy and shed counts.
	Pressure     string                   `json:"pressure"`
	ShedsByClass map[string]int64         `json:"sheds_by_class"`
	Admission    map[string]classSnapshot `json:"admission"`

	// Runtime samples the Go runtime: marchload derives its
	// allocs-per-cached-hit figure from the mallocs delta across a run of
	// back-to-back cache hits.
	Runtime RuntimeSnapshot `json:"runtime"`

	Generate HistogramSnapshot `json:"generate_latency"`

	// Fabric carries the distributed-campaign counters (fabric_leases_total,
	// fabric_steals_total, fabric_reassigns_total, ...) when this instance
	// runs in coordinator mode; absent otherwise.
	Fabric *fabric.Counters `json:"fabric,omitempty"`
}

// RuntimeSnapshot is a point-in-time sample of the Go runtime's memory
// statistics, exposed so load harnesses can compute allocation deltas
// (allocs-per-request) without in-process access.
type RuntimeSnapshot struct {
	Mallocs         uint64 `json:"mallocs"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	Goroutines      int    `json:"goroutines"`
}

func sampleRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		Mallocs:         ms.Mallocs,
		TotalAllocBytes: ms.TotalAlloc,
		HeapAllocBytes:  ms.HeapAlloc,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
	}
}

// snapshot copies the registry; queueDepth and cacheEntries are sampled by
// the caller (they are gauges owned by other components).
func (m *metrics) snapshot(queueDepth, cacheEntries int) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := MetricsSnapshot{
		Requests:       make(map[string]int64, len(m.requests)),
		Statuses:       make(map[string]int64, len(m.statuses)),
		CacheHits:      m.cacheHits,
		CacheMisses:    m.cacheMisses,
		CacheCoalesced: m.cacheCoalesced,
		CacheEntries:   cacheEntries,
		JobsSubmitted:  m.jobsSubmitted,
		JobsDone:       m.jobsDone,
		JobsFailed:     m.jobsFailed,
		JobsCanceled:   m.jobsCanceled,
		QueueDepth:     queueDepth,

		CampaignsSubmitted:   m.campaignsSubmitted,
		CampaignsDone:        m.campaignsDone,
		CampaignsFailed:      m.campaignsFailed,
		CampaignsInterrupted: m.campaignsInterrupted,

		OptimizeRuns:        m.optimizeRuns,
		OptimizeImproved:    m.optimizeImproved,
		OptimizeEvaluations: m.optimizeEvaluations,

		DiagnoseRuns:      m.diagnoseRuns,
		DiagnoseLocalized: m.diagnoseLocalized,

		PanicsTotal:  m.panicsTotal,
		EncodeErrors: m.encodeErrors,

		Runtime: sampleRuntime(),

		Generate: HistogramSnapshot{
			Count:   m.genCount,
			SumSecs: m.genSum,
			Bounds:  latencyBuckets,
			Counts:  append([]int64(nil), m.genBuckets...),
		},
	}
	for k, v := range m.requests {
		s.Requests[k] = v
	}
	for k, v := range m.statuses {
		s.Statuses[strconv.Itoa(k)] = v
	}
	return s
}
