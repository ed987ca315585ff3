package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// The workload classes. cachehit and verify run against fixed request
// bodies that the harness prewarms, so after setup they exercise the
// cache-hit fast path (never admission-controlled — the degrade contract
// says they stay green under overload). cold generates a unique options
// name per request, so every one is a genuine cache miss competing for the
// worker pool; simulate is the synchronous path.
const (
	classCacheHit = "cachehit"
	classCold     = "cold"
	classSimulate = "simulate"
	classVerify   = "verify"
)

const (
	cacheHitBody = `{"list":"list2"}`
	simulateBody = `{"march":{"name":"MATS+"},"list":"list2"}`
	verifyBody   = `{"march":{"name":"March SL"},"list":"list2"}`
)

// outcome classifies one operation.
type outcome int

const (
	outSuccess    outcome = iota
	outShed               // HTTP 429: the admission controller refused
	outError              // transport error, unexpected status, failed job
	outIncomplete         // the run or op deadline expired while polling
)

// collector aggregates worker observations.
type collector struct {
	mu      sync.Mutex
	counts  map[string]*classCounts
	healthz map[string]int64
	reasons []string
}

type classCounts struct {
	requests, success, shed, errors, incomplete int64
	latencyMS                                   []float64
}

func newCollector() *collector {
	return &collector{counts: make(map[string]*classCounts), healthz: make(map[string]int64)}
}

func (c *collector) record(class string, out outcome, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc := c.counts[class]
	if cc == nil {
		cc = &classCounts{}
		c.counts[class] = cc
	}
	cc.requests++
	switch out {
	case outSuccess:
		cc.success++
		cc.latencyMS = append(cc.latencyMS, float64(elapsed)/float64(time.Millisecond))
	case outShed:
		cc.shed++
	case outError:
		cc.errors++
	case outIncomplete:
		cc.incomplete++
	}
}

func (c *collector) health(status string, reasons []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.healthz[status]++
	if len(reasons) > 0 {
		c.reasons = reasons
	}
}

// drive runs the configured load against cfg.addr and returns the report.
func drive(cfg harnessConfig) (*loadReport, error) {
	hc := &http.Client{Timeout: cfg.opTimeout}
	if err := prewarm(hc, cfg.addr, cfg.opTimeout); err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}

	col := newCollector()
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		sampleHealthz(hc, cfg.addr, col, stop)
	}()

	// Weighted class schedule: a flat slice the workers index with their rng.
	var schedule []string
	for _, class := range []string{classCacheHit, classCold, classSimulate, classVerify} {
		for i := 0; i < cfg.mix[class]; i++ {
			schedule = append(schedule, class)
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for n := 0; time.Now().Before(deadline); n++ {
				class := schedule[rng.Intn(len(schedule))]
				out, elapsed := runOp(hc, cfg, class, w, n, deadline)
				col.record(class, out, elapsed)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	samplerWG.Wait()

	report := buildReport(cfg, col, elapsed)
	if cfg.allocSample > 0 {
		allocs, err := sampleAllocs(hc, cfg.addr, cfg.allocSample)
		if err != nil {
			return nil, fmt.Errorf("alloc sample: %w", err)
		}
		report.AllocsPerCachedHit = &allocs
	}
	return report, nil
}

// prewarm computes the fixed cachehit and verify documents once, so the
// measured run hits the cache. Failing to warm up is a setup error, not a
// load observation.
func prewarm(hc *http.Client, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, op := range []struct{ path, body string }{
		{"/v1/generate", cacheHitBody},
		{"/v1/verify", verifyBody},
	} {
		status, resp, err := postJSON(hc, addr+op.path, op.body)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			continue
		case http.StatusAccepted:
			if err := pollJob(hc, addr, resp, deadline); err != nil {
				return fmt.Errorf("POST %s: %w", op.path, err)
			}
		default:
			return fmt.Errorf("POST %s: HTTP %d", op.path, status)
		}
	}
	return nil
}

// runOp performs one operation of the class and classifies the outcome.
func runOp(hc *http.Client, cfg harnessConfig, class string, worker, n int, runDeadline time.Time) (outcome, time.Duration) {
	opDeadline := time.Now().Add(cfg.opTimeout)
	// Polling past the end of the run would smear the measurement window;
	// allow a short grace beyond it and classify the rest as incomplete.
	if grace := runDeadline.Add(2 * time.Second); opDeadline.After(grace) {
		opDeadline = grace
	}
	start := time.Now()
	var status int
	var body []byte
	var err error
	switch class {
	case classCacheHit:
		status, body, err = postJSON(hc, cfg.addr+"/v1/generate", cacheHitBody)
	case classCold:
		req := fmt.Sprintf(`{"list":%q,"options":{"name":"cold-%d-%d"}}`, cfg.coldList, worker, n)
		status, body, err = postJSON(hc, cfg.addr+"/v1/generate", req)
	case classSimulate:
		status, body, err = postJSON(hc, cfg.addr+"/v1/simulate", simulateBody)
	case classVerify:
		status, body, err = postJSON(hc, cfg.addr+"/v1/verify", verifyBody)
	}
	if err != nil {
		return outError, 0
	}
	switch status {
	case http.StatusOK:
		return outSuccess, time.Since(start)
	case http.StatusTooManyRequests:
		return outShed, 0
	case http.StatusAccepted:
		switch perr := pollJob(hc, cfg.addr, body, opDeadline); {
		case perr == nil:
			return outSuccess, time.Since(start)
		case perr == errPollDeadline:
			return outIncomplete, 0
		default:
			return outError, 0
		}
	default:
		return outError, 0
	}
}

var errPollDeadline = fmt.Errorf("poll deadline expired")

// pollJob follows a 202 submit answer ({"job":...,"poll":...}) until the
// job reaches a terminal state. An expired deadline cancels the job
// best-effort (exercising DELETE under load) and reports errPollDeadline.
func pollJob(hc *http.Client, addr string, submitBody []byte, deadline time.Time) error {
	var accepted struct {
		Poll string `json:"poll"`
	}
	if err := json.Unmarshal(submitBody, &accepted); err != nil || accepted.Poll == "" {
		return fmt.Errorf("bad submit answer: %s", truncate(submitBody))
	}
	for {
		if !time.Now().Before(deadline) {
			req, _ := http.NewRequest(http.MethodDelete, addr+accepted.Poll, nil)
			if resp, err := hc.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			return errPollDeadline
		}
		resp, err := hc.Get(addr + accepted.Poll)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: HTTP %d", accepted.Poll, resp.StatusCode)
		}
		var j struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
		switch j.Status {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s: %s", j.Status, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sampleHealthz polls GET /healthz until stop closes, counting the
// degrade-ladder levels the run observed.
func sampleHealthz(hc *http.Client, addr string, col *collector, stop chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			var h struct {
				Status  string   `json:"status"`
				Reasons []string `json:"reasons"`
			}
			if err := getJSON(hc, addr+"/healthz", &h); err == nil && h.Status != "" {
				col.health(h.Status, h.Reasons)
			}
		}
	}
}

// sampleAllocs measures server-side allocations per cached hit: the
// /metrics runtime mallocs delta across n back-to-back cache-hit requests.
// The figure covers the whole request: the server's HTTP machinery,
// decoding, resolving the fault list, the cache key and the write. In
// internal/service, TestCachedHitThroughHandlerAllocations bounds the same
// hit through the handler (without the network layer), and
// TestCachedHitServesStoredBytesWithoutAllocating pins only its last step,
// the cache lookup and write, at zero.
func sampleAllocs(hc *http.Client, addr string, n int) (float64, error) {
	before, err := metricsMallocs(hc, addr)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		status, _, err := postJSON(hc, addr+"/v1/generate", cacheHitBody)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("cache hit %d answered HTTP %d", i, status)
		}
	}
	after, err := metricsMallocs(hc, addr)
	if err != nil {
		return 0, err
	}
	if after < before {
		return 0, fmt.Errorf("mallocs went backward (%d -> %d)", before, after)
	}
	return float64(after-before) / float64(n), nil
}

func metricsMallocs(hc *http.Client, addr string) (uint64, error) {
	var m struct {
		Runtime struct {
			Mallocs uint64 `json:"mallocs"`
		} `json:"runtime"`
	}
	if err := getJSON(hc, addr+"/metrics", &m); err != nil {
		return 0, err
	}
	return m.Runtime.Mallocs, nil
}

func postJSON(hc *http.Client, url, body string) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}

func truncate(b []byte) string {
	s := string(b)
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return s
}
