package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/service"
	"marchgen/internal/sim"
)

// pollInterval is how long a cold request waits between job polls, as the
// repository's load harness (cmd/marchload) does.
const pollInterval = 5 * time.Millisecond

// retainJobs bounds the finished jobs the server keeps for polling. Every
// run completes more cold generates than this, so the job table is full
// when the live heap is measured, whatever the throughput was. marchd's
// 512 is more than a run slowed by the host completes, and a part-empty
// table would read as using less memory.
const retainJobs = 64

// hitsPerList is how many cache hits per fault list the single-client phase
// of a traced run sends for each of its two measurements.
const hitsPerList = 100

// serveW drives an in-process marchd behind a loopback listener from
// closed-loop clients, with a weighted mix of cache hits, synchronous
// simulations and cold generations.
type serveW struct {
	b       *bench
	svc     *service.Server
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	base    string
	dataDir string
	// prewarmed holds each hit request's body as the cache first served it.
	prewarmed [][]byte
	// wantSim is each simulate request's coverage from a direct sim.Simulate.
	wantSim map[string][2]int

	mu    sync.Mutex
	colds []coldRecord
}

// serveRequest is one request of the mix. Class names the op class and the
// handler-time metric it feeds.
type serveRequest struct {
	class, path, body string
}

var hitRequests = []serveRequest{
	{"hit_list1", "/v1/generate", `{"list":"list1"}`},
	{"hit_list2", "/v1/generate", `{"list":"list2"}`},
	{"hit_list1", "/v1/verify", `{"march":{"name":"March SL"},"list":"list1"}`},
	{"hit_list2", "/v1/verify", `{"march":{"name":"March ABL1"},"list":"list2"}`},
}

var simulateRequests = []struct {
	class, list string
	test        march.Test
}{
	{"simulate_list1", "list1", march.MarchSS},
	{"simulate_list2", "list2", march.MarchCMinus},
}

// mixEntry is one kind of op and its weight in the mix.
type mixEntry struct {
	kind   string // "hit", "simulate" or "cold"
	index  int    // into hitRequests or simulateRequests
	weight int
}

// serveMix is the default mix of cmd/marchload (cachehit 8, verify 1,
// simulate 2, cold 1), with each class split evenly between List #1 and
// List #2. Cold generates stay on List #2: a List #1 generation takes
// hundreds of milliseconds on every core. Weights are out of 24.
var serveMix = []mixEntry{
	{"hit", 0, 8}, {"hit", 1, 8}, // generate hits on List #1 and List #2
	{"hit", 2, 1}, {"hit", 3, 1}, // verify hits on List #1 and List #2
	{"simulate", 0, 2}, {"simulate", 1, 2},
	{"cold", 0, 2},
}

// coldRecord is one cold generate: its job's queue wait and run time from
// the snapshot stamps, and how many polls it took.
type coldRecord struct {
	phase          int
	queueMS, runMS float64
	polls          int
}

func setupServe(b *bench) (workload, error) {
	s := &serveW{
		b:         b,
		prewarmed: make([][]byte, len(hitRequests)),
		wantSim:   map[string][2]int{},
		served:    make(chan struct{}),
	}
	lists := map[string][]linked.Fault{
		"list1": b.list("list1", faultlist.List1),
		"list2": b.list("list2", faultlist.List2),
	}
	for _, r := range simulateRequests {
		rep := sim.Simulate(r.test, lists[r.list], sim.DefaultConfig())
		if err := rep.Err(); err != nil {
			return nil, err
		}
		s.wantSim[r.class] = [2]int{rep.Detected(), rep.Total()}
	}
	dir, err := b.tempDir("serve")
	if err != nil {
		return nil, err
	}
	s.dataDir = dir
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.svc = service.New(service.Config{DataDir: dir, RetainJobs: retainJobs})
	s.hs = &http.Server{Handler: s.wrap(s.svc.Handler())}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}
	if err := s.prewarm(); err != nil {
		s.close()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return s, nil
}

// prewarm submits every hit request, waits for the jobs, and keeps the body
// of the first cache hit each one gets.
func (s *serveW) prewarm() error {
	polls := make([]string, len(hitRequests))
	for i, r := range hitRequests {
		status, _, body, err := s.do(-1, 0, r.class, http.MethodPost, r.path, r.body)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("%s %s: HTTP %d", r.path, r.body, status)
		}
		if polls[i], err = pollURL(body); err != nil {
			return err
		}
	}
	for i, r := range hitRequests {
		if _, _, err := s.await(-1, 0, polls[i]); err != nil {
			return err
		}
		status, hdr, body, err := s.do(-1, 0, r.class, http.MethodPost, r.path, r.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			return fmt.Errorf("%s %s: HTTP %d X-Cache %q after the job finished", r.path, r.body, status, hdr.Get("X-Cache"))
		}
		s.prewarmed[i] = body
	}
	return nil
}

// wrap times the service's handler. The client names the request's class
// and its own span in headers, so the handler span is the client span's
// child and their difference is the time outside the handler.
func (s *serveW) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.b.tracer()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
		sp := tr.begin("service.handler."+r.Header.Get("X-Bench-Class"), parent, op)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// do sends one request inside a client span and reads the whole answer.
func (s *serveW) do(parent int, op int64, class, method, path, body string) (int, http.Header, []byte, error) {
	tr := s.b.tracer()
	sp := tr.begin("service.request", parent, op)
	defer tr.end(sp)
	req, err := http.NewRequest(method, s.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if tr != nil {
		req.Header.Set("X-Bench-Class", class)
		req.Header.Set("X-Bench-Span", strconv.Itoa(sp))
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// pick chooses an op's request from the seeded mix.
func pick(seed int64, id opID) mixEntry {
	total := 0
	for _, m := range serveMix {
		total += m.weight
	}
	n := rand.New(rand.NewSource(mix(seed, id.client, id.index))).Intn(total)
	for _, m := range serveMix {
		if n < m.weight {
			return m
		}
		n -= m.weight
	}
	panic("unreachable")
}

func (s *serveW) op(id opID) (string, time.Duration, error) {
	tr := s.b.tracer()
	key := id.key()
	choice := pick(s.b.opSeed(id), id)
	start := time.Now()
	root := tr.begin("serve.op", -1, key)
	defer tr.end(root)
	switch choice.kind {
	case "hit":
		i := choice.index
		r := hitRequests[i]
		status, hdr, body, err := s.do(root, key, r.class, http.MethodPost, r.path, r.body)
		if err = answerErr(status, http.StatusOK, body, err); err != nil {
			return r.class, 0, err
		}
		if hdr.Get("X-Cache") != "hit" {
			return r.class, 0, fmt.Errorf("%s %s: served with X-Cache %q", r.path, r.body, hdr.Get("X-Cache"))
		}
		if !bytes.Equal(body, s.prewarmed[i]) {
			return r.class, 0, fmt.Errorf("%s %s: body differs from the prewarmed answer", r.path, r.body)
		}
		return r.class, time.Since(start), nil
	case "simulate":
		r := simulateRequests[choice.index]
		req := fmt.Sprintf(`{"march":{"name":%q},"list":%q}`, r.test.Name, r.list)
		status, _, body, err := s.do(root, key, r.class, http.MethodPost, "/v1/simulate", req)
		if err = answerErr(status, http.StatusOK, body, err); err != nil {
			return "simulate", 0, err
		}
		var doc struct {
			Report struct{ Detected, Total int }
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return "simulate", 0, fmt.Errorf("simulate %s: %v", r.list, err)
		}
		if got := [2]int{doc.Report.Detected, doc.Report.Total}; got != s.wantSim[r.class] {
			return "simulate", 0, fmt.Errorf("simulate %s on %s: %d/%d, direct simulation gives %d/%d",
				r.test.Name, r.list, got[0], got[1], s.wantSim[r.class][0], s.wantSim[r.class][1])
		}
		return "simulate", time.Since(start), nil
	default:
		if err := s.cold(root, key, id); err != nil {
			return "cold", 0, err
		}
		return "cold", time.Since(start), nil
	}
}

// cold submits a List #2 generation under a name no other request uses,
// then polls the job until it is done and checks its result.
func (s *serveW) cold(root int, key int64, id opID) error {
	body := fmt.Sprintf(`{"list":"list2","options":{"name":"March B%d.%d.%d.%d"}}`, s.b.seed, id.phase, id.client, id.index)
	status, _, answer, err := s.do(root, key, "cold_submit", http.MethodPost, "/v1/generate", body)
	if err = answerErr(status, http.StatusAccepted, answer, err); err != nil {
		return err
	}
	poll, err := pollURL(answer)
	if err != nil {
		return fmt.Errorf("cold generate: %v", err)
	}
	job, polls, err := s.await(root, key, poll)
	if err != nil {
		return err
	}
	var doc struct {
		Report struct{ Detected, Total int }
	}
	if err := json.Unmarshal(job.Result, &doc); err != nil {
		return fmt.Errorf("cold generate result: %v", err)
	}
	if doc.Report.Total != 18 || doc.Report.Detected != doc.Report.Total {
		return fmt.Errorf("cold generate on list2: coverage %d/%d, want 18/18", doc.Report.Detected, doc.Report.Total)
	}
	s.mu.Lock()
	s.colds = append(s.colds, coldRecord{
		phase:   id.phase,
		queueMS: ms(job.Started.Sub(job.Created)),
		runMS:   ms(job.Finished.Sub(job.Started)),
		polls:   polls,
	})
	s.mu.Unlock()
	return nil
}

// await polls a job until it is done and returns its snapshot.
func (s *serveW) await(root int, key int64, poll string) (service.Job, int, error) {
	for polls := 1; ; polls++ {
		time.Sleep(pollInterval)
		status, _, body, err := s.do(root, key, "poll", http.MethodGet, poll, "")
		if err = answerErr(status, http.StatusOK, body, err); err != nil {
			return service.Job{}, polls, err
		}
		var job service.Job
		if err := json.Unmarshal(body, &job); err != nil {
			return job, polls, fmt.Errorf("poll %s: %v", poll, err)
		}
		switch job.Status {
		case service.JobDone:
			return job, polls, nil
		case service.JobFailed, service.JobCanceled:
			return job, polls, fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
		}
	}
}

// answerErr turns a transport error or an unexpected status into the op's
// failure. A shed (429) or backstop (503) is a refusal, not a wrong output.
func answerErr(status, want int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return refusal{status}
	}
	if status != want {
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("HTTP %d, want %d: %s", status, want, body)
	}
	return nil
}

func pollURL(submit []byte) (string, error) {
	var a struct{ Poll string }
	if err := json.Unmarshal(submit, &a); err != nil || a.Poll == "" {
		return "", fmt.Errorf("submit answer without a poll location: %.200s", submit)
	}
	return a.Poll, nil
}

func (s *serveW) layers(untraced []sample, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	out := map[string]float64{
		"service.net_ms": median(self["service.request"]),
	}
	for _, c := range []string{"hit_list1", "hit_list2", "simulate_list1", "simulate_list2", "cold_submit", "poll"} {
		out["service.handler_ms."+c] = median(self["service.handler."+c])
	}
	var queue, run []float64
	polls := 0
	s.mu.Lock()
	for _, c := range s.colds {
		if c.phase == phaseTraced {
			queue = append(queue, c.queueMS)
			run = append(run, c.runMS)
			polls += c.polls
		}
	}
	s.mu.Unlock()
	out["service.queue_wait_ms"] = median(queue)
	out["service.job_run_ms"] = median(run)
	out["service.polls_per_cold"] = ratio(float64(polls), float64(len(queue)))

	// The hit classes measured with tracing off, in the untraced phase.
	for _, list := range []string{"list1", "list2"} {
		hits := latenciesMS(untraced, "hit_"+list)
		out["service.hit_p50_ms."+list] = percentile(hits, 0.5)
		out["service.hit_tail_ms."+list] = percentile(hits, workloads["serve"].tailPct())
	}

	m, err := s.metrics()
	if err != nil {
		return nil, err
	}
	out["service.cache_hit_ratio"] = ratio(m.CacheHits, m.CacheHits+m.CacheMisses)

	// Single-client phase: hits on each list one at a time. Allocations per
	// hit are the runtime.mallocs delta of /metrics over untraced hits, as
	// cmd/marchload measures them (its -selfserve client shares the
	// server's process too); traced hits then give the handler's own time.
	s.b.tr.Store(nil)
	for i, list := range []string{"list1", "list2"} {
		before, err := s.metrics()
		if err != nil {
			return nil, err
		}
		if err := s.hits(i); err != nil {
			return nil, err
		}
		after, err := s.metrics()
		if err != nil {
			return nil, err
		}
		out["service.allocs_per_hit."+list] = float64(after.Runtime.Mallocs-before.Runtime.Mallocs) / hitsPerList

		tr := newTracer()
		s.b.tr.Store(tr)
		err = s.hits(i)
		s.b.tr.Store(nil)
		if err != nil {
			return nil, err
		}
		out["service.hit_1client_ms."+list] = median(selfByName(tr.snapshot())["service.handler."+hitRequests[i].class])
	}
	return out, nil
}

// hits sends hit request i hitsPerList times from one client and checks
// every answer against the prewarmed body.
func (s *serveW) hits(i int) error {
	r := hitRequests[i]
	for n := 0; n < hitsPerList; n++ {
		status, _, body, err := s.do(-1, int64(n), r.class, http.MethodPost, r.path, r.body)
		if err = answerErr(status, http.StatusOK, body, err); err != nil {
			return err
		}
		if !bytes.Equal(body, s.prewarmed[i]) {
			return fmt.Errorf("%s %s: body differs from the prewarmed answer", r.path, r.body)
		}
	}
	return nil
}

// serviceMetrics is the part of /metrics the traced run reads.
type serviceMetrics struct {
	CacheHits   float64 `json:"cache_hits"`
	CacheMisses float64 `json:"cache_misses"`
	Runtime     struct {
		Mallocs uint64 `json:"mallocs"`
	} `json:"runtime"`
}

func (s *serveW) metrics() (serviceMetrics, error) {
	var m serviceMetrics
	status, _, body, err := s.do(-1, 0, "metrics", http.MethodGet, "/metrics", "")
	if err = answerErr(status, http.StatusOK, body, err); err != nil {
		return m, err
	}
	err = json.Unmarshal(body, &m)
	return m, err
}

func (s *serveW) details() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	colds := len(s.colds)
	s.colds = nil
	return map[string]any{"cold_jobs": colds, "poll_interval_ms": ms(pollInterval), "retain_jobs": retainJobs}
}

func (s *serveW) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-s.served
	if err := s.svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
	s.client.CloseIdleConnections()
	if err := os.RemoveAll(s.dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
