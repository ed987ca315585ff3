package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// do runs one request through the full handler stack.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

type jobEnvelope struct {
	Job  Job    `json:"job"`
	Poll string `json:"poll"`
}

// pollJob polls until the job is terminal and returns its snapshot.
func pollJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		w := do(t, s, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, w.Code, w.Body.String())
		}
		j := decode[Job](t, w)
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

// holdWorker submits, through the generate class's admission and the job
// engine as a POST /v1/generate does, a job that runs until it is canceled,
// and returns its id once a worker has started it. Tests that need a busy
// worker use it rather than a real generation, which can finish (a List #1
// job takes tens of milliseconds) before the test has made its point.
func holdWorker(t *testing.T, s *Server, key string) string {
	t.Helper()
	j, _, err := s.lookupOrSubmit(classGenerate, key, 0, func(ctx context.Context) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatalf("hold a worker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.admit.queued() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return j.id
}

func TestGenerateCacheRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	// First request: a miss that enqueues a job.
	w := do(t, s, "POST", "/v1/generate", `{"list":"list2"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST: X-Cache = %q, want miss", got)
	}
	env := decode[jobEnvelope](t, w)
	if env.Job.ID == "" || env.Poll != "/v1/jobs/"+env.Job.ID {
		t.Fatalf("job envelope = %+v", env)
	}
	if loc := w.Header().Get("Location"); loc != env.Poll {
		t.Fatalf("Location = %q, want %q", loc, env.Poll)
	}

	j := pollJob(t, s, env.Job.ID)
	if j.Status != JobDone {
		t.Fatalf("job = %+v, want done", j)
	}

	// The raw result document.
	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result: status %d: %s", res.Code, res.Body.String())
	}
	var doc struct {
		Test struct {
			Spec   string `json:"spec"`
			Length int    `json:"length"`
		} `json:"test"`
		Report struct {
			Coverage float64 `json:"coverage_percent"`
			Total    int     `json:"total"`
		} `json:"report"`
		Key string `json:"cache_key"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Report.Coverage != 100 || doc.Report.Total != 18 || doc.Test.Length == 0 || doc.Key == "" {
		t.Fatalf("result document = %+v", doc)
	}

	// Second request: a cache hit with byte-identical output.
	w2 := do(t, s, "POST", "/v1/generate", `{"list":"list2"}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("second POST: status %d: %s", w2.Code, w2.Body.String())
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second POST: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w2.Body.Bytes(), res.Body.Bytes()) {
		t.Fatalf("cache hit bytes differ from the job's result document")
	}

	// A canonically equivalent request (defaults spelled out) also hits.
	w3 := do(t, s, "POST", "/v1/generate", `{"list":"list2","options":{"name":"March GEN","max_so_len":11}}`)
	if w3.Code != http.StatusOK || w3.Header().Get("X-Cache") != "hit" {
		t.Fatalf("canonical twin: status %d X-Cache %q", w3.Code, w3.Header().Get("X-Cache"))
	}

	// The metrics counters saw exactly one miss and two hits.
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Fatalf("cache counters = %d hits / %d misses, want 2/1", m.CacheHits, m.CacheMisses)
	}
	if m.JobsSubmitted != 1 || m.JobsDone != 1 {
		t.Fatalf("job counters = %+v", m)
	}
	if m.Generate.Count != 1 || m.Generate.SumSecs <= 0 {
		t.Fatalf("latency histogram = %+v", m.Generate)
	}
	if m.Requests["POST /v1/generate"] != 3 {
		t.Fatalf("request counter = %+v", m.Requests)
	}
}

func TestGenerateInlineFaultsShareCacheEntry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	// An LF1 from list2, spelled inline.
	inline := `{"faults":[{"kind":"LF1","fps":["<0w1/0/->","<0w0/1/->"]}]}`
	w := do(t, s, "POST", "/v1/generate", inline)
	if w.Code != http.StatusAccepted {
		t.Fatalf("inline POST: %d: %s", w.Code, w.Body.String())
	}
	env := decode[jobEnvelope](t, w)
	if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
		t.Fatalf("job = %+v", j)
	}
	// The same faults inline again: hit, no second job.
	w2 := do(t, s, "POST", "/v1/generate", inline)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: %d %q", w2.Code, w2.Header().Get("X-Cache"))
	}
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.JobsSubmitted != 1 {
		t.Fatalf("jobs submitted = %d, want 1", m.JobsSubmitted)
	}
}

func TestGenerateDeduplicatesInflight(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// Two concurrent identical misses must share one job.
	w1 := do(t, s, "POST", "/v1/generate", `{"list":"list1"}`)
	w2 := do(t, s, "POST", "/v1/generate", `{"list":"list1"}`)
	if w1.Code != http.StatusAccepted || w2.Code != http.StatusAccepted {
		t.Fatalf("status %d / %d", w1.Code, w2.Code)
	}
	id1 := decode[jobEnvelope](t, w1).Job.ID
	id2 := decode[jobEnvelope](t, w2).Job.ID
	if id1 != id2 {
		t.Fatalf("identical in-flight requests got distinct jobs %s / %s", id1, id2)
	}
	if j := pollJob(t, s, id1); j.Status != JobDone {
		t.Fatalf("job = %+v", j)
	}
}

func TestGenerateBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"empty spec", `{}`},
		{"unknown list", `{"list":"list99"}`},
		{"both list and faults", `{"list":"list2","faults":[{"kind":"Simple","fps":["<0w1/0/->"]}]}`},
		{"bad fault kind", `{"faults":[{"kind":"LF9","fps":["<0w1/0/->","<1w0/1/->"]}]}`},
		{"invalid linking", `{"faults":[{"kind":"LF1","fps":["<0w1/0/->","<0w1/0/->"]}]}`},
		{"bad fp notation", `{"faults":[{"kind":"Simple","fps":["garbage"]}]}`},
		{"bad orders", `{"list":"list2","options":{"orders":"sideways"}}`},
		{"unknown field", `{"list":"list2","bogus":1}`},
		{"not json", `{"list":`},
	}
	for _, tc := range cases {
		if w := do(t, s, "POST", "/v1/generate", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, req := range [][2]string{
		{"GET", "/v1/jobs/j-nope"},
		{"GET", "/v1/jobs/j-nope/result"},
		{"DELETE", "/v1/jobs/j-nope"},
	} {
		if w := do(t, s, req[0], req[1], ""); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", req[0], req[1], w.Code)
		}
	}
}

func TestJobCancellation(t *testing.T) {
	// One worker: the list1 job occupies it, the next job stays queued.
	s := newTestServer(t, Config{Workers: 1})

	running := do(t, s, "POST", "/v1/generate", `{"list":"list1"}`)
	queued := do(t, s, "POST", "/v1/generate", `{"list":"list1","options":{"name":"queued-twin"}}`)
	if running.Code != http.StatusAccepted || queued.Code != http.StatusAccepted {
		t.Fatalf("status %d / %d", running.Code, queued.Code)
	}
	runID := decode[jobEnvelope](t, running).Job.ID
	queueID := decode[jobEnvelope](t, queued).Job.ID

	// Canceling the queued job terminates it without it ever running.
	w := do(t, s, "DELETE", "/v1/jobs/"+queueID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d: %s", w.Code, w.Body.String())
	}
	if j := pollJob(t, s, queueID); j.Status != JobCanceled {
		t.Fatalf("queued job = %+v, want canceled", j)
	}

	// Canceling the running job aborts the generation via its context.
	if w := do(t, s, "DELETE", "/v1/jobs/"+runID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel running: %d", w.Code)
	}
	j := pollJob(t, s, runID)
	if j.Status != JobCanceled && j.Status != JobDone {
		// Done is possible if generation beat the cancel; canceled is the
		// expected outcome.
		t.Fatalf("running job = %+v", j)
	}

	// A canceled job's result endpoint reports the loss.
	if j.Status == JobCanceled {
		if w := do(t, s, "GET", "/v1/jobs/"+runID+"/result", ""); w.Code != http.StatusGone {
			t.Fatalf("canceled result: status %d, want 410", w.Code)
		}
	}
}

func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(t, s, "POST", "/v1/generate", `{"list":"list1","timeout_ms":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: %d", w.Code)
	}
	j := pollJob(t, s, decode[jobEnvelope](t, w).Job.ID)
	if j.Status != JobFailed || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("job = %+v, want failed with deadline error", j)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the lone worker, then wait until it has dequeued the job so
	// the single queue slot is observably free.
	holdID := holdWorker(t, s, "fill-0")

	// Fill the queue slot; the next distinct request must get shed by the
	// admission controller: 429 with a Retry-After.
	wB := do(t, s, "POST", "/v1/generate", `{"list":"list1","options":{"name":"fill-1"}}`)
	if wB.Code != http.StatusAccepted {
		t.Fatalf("second POST: status %d: %s", wB.Code, wB.Body.String())
	}
	wC := do(t, s, "POST", "/v1/generate", `{"list":"list1","options":{"name":"fill-2"}}`)
	if wC.Code != http.StatusTooManyRequests {
		t.Fatalf("third POST: status %d, want 429", wC.Code)
	}
	if ra := wC.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive whole-second count", ra)
	}
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.ShedsByClass["generate"] == 0 {
		t.Fatalf("sheds_by_class[generate] = %d, want nonzero", m.ShedsByClass["generate"])
	}

	// A full generate class sheds only itself: verify has its own budget.
	wV := do(t, s, "POST", "/v1/verify", `{"march":{"name":"March SS"},"list":"list2"}`)
	if wV.Code != http.StatusAccepted {
		t.Fatalf("verify with the generate class full: status %d, want 202: %s", wV.Code, wV.Body.String())
	}

	// Cancel every job so the deferred Shutdown drains quickly.
	for _, id := range []string{holdID, decode[jobEnvelope](t, wB).Job.ID, decode[jobEnvelope](t, wV).Job.ID} {
		do(t, s, "DELETE", "/v1/jobs/"+id, "")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// March SL covers every static linked fault of list 1.
	w := do(t, s, "POST", "/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d: %s", w.Code, w.Body.String())
	}
	out := decode[struct {
		Report struct {
			Coverage float64 `json:"coverage_percent"`
		} `json:"report"`
		Summary string `json:"summary"`
	}](t, w)
	if out.Report.Coverage != 100 || !strings.Contains(out.Summary, "100.0%") {
		t.Fatalf("simulate out = %+v", out)
	}

	// MATS+ misses linked faults — the motivating claim of the paper.
	w = do(t, s, "POST", "/v1/simulate", `{"march":{"name":"MATS+"},"list":"list2"}`)
	out2 := decode[struct {
		Report struct {
			Coverage float64 `json:"coverage_percent"`
			Missed   []any   `json:"missed"`
		} `json:"report"`
	}](t, w)
	if out2.Report.Coverage >= 100 || len(out2.Report.Missed) == 0 {
		t.Fatalf("MATS+ coverage = %+v, want misses", out2)
	}

	// Inline spec.
	w = do(t, s, "POST", "/v1/simulate", `{"march":{"spec":"c(w0) ^(r0,w1) v(r1,w0)"},"list":"simple1"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("inline spec: %d: %s", w.Code, w.Body.String())
	}

	// Bad specs are client errors.
	for _, body := range []string{
		`{"march":{"name":"March NOPE"},"list":"list2"}`,
		`{"march":{"spec":"^(r0,w1"},"list":"list2"}`,
		`{"march":{"spec":"^(r0,w1)"},"list":"list2"}`, // inconsistent: read 0 never established
		`{"list":"list2"}`, // no march at all
		`{"march":{"name":"March SL"},"list":"list2","config":{"size":17}}`, // memory too large
	} {
		if w := do(t, s, "POST", "/v1/simulate", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, w.Code)
		}
	}
}

func TestDetectsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// March SL detects the canonical LF1; MATS+ does not and must name a
	// witness scenario.
	const fault = `{"kind":"LF1","fps":["<0w1/0/->","<0r0/1/0>"]}`
	w := do(t, s, "POST", "/v1/detects", `{"march":{"name":"March SL"},"fault":`+fault+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("detects: %d: %s", w.Code, w.Body.String())
	}
	out := decode[struct {
		Detected bool   `json:"detected"`
		Witness  string `json:"witness"`
	}](t, w)
	if !out.Detected || out.Witness != "" {
		t.Fatalf("March SL: %+v", out)
	}

	w = do(t, s, "POST", "/v1/detects", `{"march":{"name":"MATS+"},"fault":`+fault+`}`)
	out = decode[struct {
		Detected bool   `json:"detected"`
		Witness  string `json:"witness"`
	}](t, w)
	if out.Detected || out.Witness == "" {
		t.Fatalf("MATS+: %+v", out)
	}

	if w := do(t, s, "POST", "/v1/detects", `{"march":{"name":"MATS+"}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("missing fault: %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/v1/detects", `{"march":{"name":"MATS+"},"fault":`+fault+`,"config":{"size":17}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("memory too large: %d, want 400", w.Code)
	}
}

func TestLibraryAndFaultLists(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	lib := decode[struct {
		Tests []struct {
			Name string `json:"name"`
			Spec string `json:"spec"`
		} `json:"tests"`
	}](t, do(t, s, "GET", "/v1/library", ""))
	if len(lib.Tests) < 10 {
		t.Fatalf("library has %d tests", len(lib.Tests))
	}
	found := false
	for _, tt := range lib.Tests {
		if tt.Name == "March SL" && tt.Spec != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("March SL missing from /v1/library")
	}

	fl := decode[struct {
		Lists []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"lists"`
	}](t, do(t, s, "GET", "/v1/faultlists", ""))
	byName := map[string]int{}
	for _, l := range fl.Lists {
		byName[l.Name] = l.Count
	}
	if byName["list1"] != 594 || byName["list2"] != 18 {
		t.Fatalf("fault lists = %+v", byName)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}
}

func TestShutdownDrainsInflightJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	w := do(t, s, "POST", "/v1/generate", `{"list":"list2"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: %d", w.Code)
	}
	id := decode[jobEnvelope](t, w).Job.ID

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight job completed rather than being dropped.
	if j := pollJob(t, s, id); j.Status != JobDone {
		t.Fatalf("job after drain = %+v, want done", j)
	}
	// New work is refused while/after draining.
	if w := do(t, s, "POST", "/v1/generate", `{"list":"list1"}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown POST: %d, want 503", w.Code)
	}
}

// TestConcurrentClients hammers the service from several goroutines; run
// under -race (scripts/race.sh includes this package) it doubles as the
// data-race gate for the handler/job/cache/metrics paths. Its cache-counter
// assertions hold under any interleaving of the clients.
func TestConcurrentClients(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	var wg sync.WaitGroup
	var answered atomic.Int64 // generate requests answered 200 or 202
	errs := make(chan string, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				w := do(t, s, "POST", "/v1/generate", `{"list":"list2"}`)
				switch w.Code {
				case http.StatusOK, http.StatusAccepted:
					answered.Add(1)
				case http.StatusServiceUnavailable: // engine backpressure is a valid answer
				case http.StatusTooManyRequests: // as is an admission shed
				default:
					errs <- fmt.Sprintf("generate: %d %s", w.Code, w.Body.String())
				}
				if w.Code == http.StatusAccepted {
					pollJob(t, s, decode[jobEnvelope](t, w).Job.ID)
				}
				if w := do(t, s, "POST", "/v1/simulate", `{"march":{"name":"MATS+"},"list":"simple1"}`); w.Code != http.StatusOK {
					errs <- fmt.Sprintf("simulate: %d", w.Code)
				}
				if w := do(t, s, "GET", "/metrics", ""); w.Code != http.StatusOK {
					errs <- fmt.Sprintf("metrics: %d", w.Code)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// A miss is a created job; a request merged onto the in-flight job is
	// coalesced, not missed. Every answered generate is exactly one of hit,
	// miss or coalesced, whichever client got there first.
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.CacheHits == 0 || m.CacheMisses == 0 {
		t.Fatalf("cache counters = %+v", m)
	}
	if m.CacheMisses != m.JobsSubmitted {
		t.Fatalf("misses %d != submitted jobs %d", m.CacheMisses, m.JobsSubmitted)
	}
	if got, want := m.CacheHits+m.CacheMisses+m.CacheCoalesced, answered.Load(); got != want {
		t.Fatalf("hits %d + misses %d + coalesced %d = %d, want %d answered generates",
			m.CacheHits, m.CacheMisses, m.CacheCoalesced, got, want)
	}
}

// TestRoutePanicContained pins HTTP-layer panic containment: a handler
// that panics answers 500 with the uniform JSON error body, the process
// (and the mux) keeps serving, and the panic is visible in /metrics as
// panics_total.
func TestRoutePanicContained(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	mux := http.NewServeMux()
	s.route(mux, "GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	s.route(mux, "GET /fine", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking route status = %d, want 500", w.Code)
	}
	var body apiError
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("panicking route body = %q (err %v), want the JSON error shape", w.Body.String(), err)
	}

	// The route table keeps serving after the panic.
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/fine", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("route after panic = %d, want 200", w.Code)
	}

	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", m.PanicsTotal)
	}
	if m.Statuses["500"] != 1 {
		t.Fatalf("responses_by_status[500] = %d, want 1", m.Statuses["500"])
	}
}

// TestRoutePanicAfterStatusLine: once a handler has written its status
// line, containment cannot rewrite it — but the panic is still counted
// and the connection is not left looking like a clean 200 in metrics.
func TestRoutePanicAfterStatusLine(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	mux := http.NewServeMux()
	s.route(mux, "GET /late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("mid-body")
	})
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/late", nil))
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", m.PanicsTotal)
	}
	if m.Statuses["500"] != 1 {
		t.Fatalf("late panic not recorded as 500 in metrics: %+v", m.Statuses)
	}
}

// TestEncodeErrorCountedAndLogged: a response body that fails to encode
// after the status line is logged through the request log and counted in
// /metrics as response_encode_errors (satellite of ISSUE 4).
func TestEncodeErrorCountedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, Logger: log.New(&logBuf, "", 0)})
	mux := http.NewServeMux()
	s.route(mux, "GET /unencodable", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"bad": make(chan int)})
	})
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/unencodable", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (the status line goes out before the body can fail)", w.Code)
	}
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.EncodeErrors != 1 {
		t.Fatalf("response_encode_errors = %d, want 1", m.EncodeErrors)
	}
	if !strings.Contains(logBuf.String(), "encode error") {
		t.Fatalf("request log did not record the encode error:\n%s", logBuf.String())
	}
}

// TestSubmitIDsAreUnique is a cheap regression net for the newJobID
// error path refactor: ids still mint and never collide.
func TestSubmitIDsAreUnique(t *testing.T) {
	e := newJobEngine(2, time.Minute, 64)
	defer e.Shutdown(context.Background())
	seen := make(map[string]bool)
	for i := 0; i < 32; i++ {
		j, err := e.Submit(classGenerate, 0, func(ctx context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if seen[j.id] {
			t.Fatalf("duplicate job id %s", j.id)
		}
		seen[j.id] = true
	}
}

func TestVerifyEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	// First request: a miss that enqueues a cross-check job.
	w := do(t, s, "POST", "/v1/verify", `{"march":{"name":"March SS"},"list":"list2"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first POST: X-Cache = %q, want miss", got)
	}
	env := decode[jobEnvelope](t, w)
	j := pollJob(t, s, env.Job.ID)
	if j.Status != JobDone {
		t.Fatalf("job = %+v, want done", j)
	}

	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result: status %d: %s", res.Code, res.Body.String())
	}
	var doc struct {
		Faults      int               `json:"faults"`
		Agree       bool              `json:"agree"`
		Divergences []json.RawMessage `json:"divergences"`
		Key         string            `json:"cache_key"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Agree || doc.Faults != 18 || len(doc.Divergences) != 0 || doc.Key == "" {
		t.Fatalf("verify document = %+v", doc)
	}

	// Second request: a cache hit with byte-identical output.
	w2 := do(t, s, "POST", "/v1/verify", `{"march":{"name":"March SS"},"list":"list2"}`)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second POST: status %d X-Cache %q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w2.Body.Bytes(), res.Body.Bytes()) {
		t.Fatalf("cache hit bytes differ from the job's result document")
	}

	// An explicit default config hits the same entry (canonicalized key).
	w3 := do(t, s, "POST", "/v1/verify", `{"march":{"name":"March SS"},"list":"list2","config":{"size":4,"exhaustive_orders":true}}`)
	if w3.Code != http.StatusOK || w3.Header().Get("X-Cache") != "hit" {
		t.Fatalf("canonical twin: status %d X-Cache %q", w3.Code, w3.Header().Get("X-Cache"))
	}
}

func TestVerifyBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{`,                // malformed JSON
		`{"list":"list2"}`, // no march test
		`{"march":{"name":"nope"},"list":"list2"}`,                          // unknown test
		`{"march":{"name":"March SS"}}`,                                     // no faults
		`{"march":{"name":"March SS"},"list":"nope"}`,                       // unknown list
		`{"march":{"name":"March SS"},"list":"list2","x":1}`,                // unknown field
		`{"march":{"name":"March SS"},"list":"list2","config":{"size":17}}`, // memory too large
	}
	for _, body := range cases {
		if w := do(t, s, "POST", "/v1/verify", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, w.Code)
		}
	}
}
