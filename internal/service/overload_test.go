package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCanceledQueuedJobsFreeTheirSlots: a job canceled while still queued
// must release its queue accounting immediately, hold nothing a later
// submit needs, and never count in the latency histogram.
func TestCanceledQueuedJobsFreeTheirSlots(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// Occupy the lone worker until the end of the test, then flood the
	// queue.
	runID := holdWorker(t, s, "tomb-run")

	histBefore := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", "")).Generate.Count

	var queued []string
	for i := 0; i < 4; i++ {
		w := do(t, s, "POST", "/v1/generate",
			`{"list":"list1","options":{"name":"tomb-`+strings.Repeat("q", i+1)+`"}}`)
		if w.Code != http.StatusAccepted {
			t.Fatalf("queued submit %d: %d: %s", i, w.Code, w.Body.String())
		}
		queued = append(queued, decode[jobEnvelope](t, w).Job.ID)
	}
	if got := s.admit.queued(); got != 4 {
		t.Fatalf("queue depth after flood = %d, want 4", got)
	}

	// Cancel every queued job. The depth and the admission occupancy must
	// return to zero right away, while the worker is still busy.
	for _, id := range queued {
		if w := do(t, s, "DELETE", "/v1/jobs/"+id, ""); w.Code != http.StatusOK {
			t.Fatalf("cancel %s: %d: %s", id, w.Code, w.Body.String())
		}
	}
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.QueueDepth != 0 {
		t.Fatalf("job_queue_depth after cancels = %d, want 0", m.QueueDepth)
	}
	if q := m.Admission["generate"].Queued; q != 0 {
		t.Fatalf("admission generate.queued after cancels = %d, want 0", q)
	}
	if m.JobsCanceled != 4 {
		t.Fatalf("jobs_canceled = %d, want 4", m.JobsCanceled)
	}
	// Canceled-while-queued jobs never ran: the latency histogram must not
	// have moved.
	if m.Generate.Count != histBefore {
		t.Fatalf("generate latency count moved %d -> %d on canceled jobs", histBefore, m.Generate.Count)
	}

	// The canceled jobs hold nothing, so the worker still pinned on the held
	// job leaves the whole queue budget to new work.
	var after []string
	for i := 0; i < 4; i++ {
		w := do(t, s, "POST", "/v1/generate",
			`{"list":"list1","options":{"name":"tomb-after-`+strings.Repeat("q", i+1)+`"}}`)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d after the cancels: %d, want 202: %s", i, w.Code, w.Body.String())
		}
		after = append(after, decode[jobEnvelope](t, w).Job.ID)
	}
	m = decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.QueueDepth != 4 {
		t.Fatalf("job_queue_depth after the new submits = %d, want 4", m.QueueDepth)
	}
	for _, id := range append(after, runID) {
		do(t, s, "DELETE", "/v1/jobs/"+id, "")
	}
}

// brokenPipeWriter fakes the ResponseWriter of a client that disconnected
// mid-response: every write fails with EPIPE, and WriteHeader calls are
// counted so the test can prove only one status line ever went out.
type brokenPipeWriter struct {
	header       http.Header
	headerCalls  []int
	bytesWritten int
}

func (w *brokenPipeWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *brokenPipeWriter) WriteHeader(code int) { w.headerCalls = append(w.headerCalls, code) }

func (w *brokenPipeWriter) Write(p []byte) (int, error) {
	w.bytesWritten += len(p)
	return 0, syscall.EPIPE
}

// TestShedWriteToDisconnectedClient pins the double-write bugfix: when the
// client of a shed (429) response disconnects mid-write and a later error
// path tries to answer again, the second status line is suppressed and
// surfaces as a recorded encode error instead of an HTTP protocol
// violation.
func TestShedWriteToDisconnectedClient(t *testing.T) {
	inner := &brokenPipeWriter{}
	sw := &statusWriter{ResponseWriter: inner, status: http.StatusOK}

	shed := &shedError{class: classGenerate, retryAfter: 2 * time.Second, reason: "test"}
	writeShed(sw, shed)
	if got := inner.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if len(inner.headerCalls) != 1 || inner.headerCalls[0] != http.StatusTooManyRequests {
		t.Fatalf("status lines written = %v, want exactly [429]", inner.headerCalls)
	}
	// The body write failed (EPIPE), which the route layer sees as an
	// encode error on the response writer.
	if sw.encodeErr == nil {
		t.Fatal("EPIPE on the 429 body was not recorded as an encode error")
	}

	// A later error path bouncing into a second write must not emit a
	// second status line.
	writeError(sw, http.StatusInternalServerError, "late failure")
	if len(inner.headerCalls) != 1 {
		t.Fatalf("status lines after second write = %v, want still [429]", inner.headerCalls)
	}
	if sw.encodeErr == nil || !strings.Contains(sw.encodeErr.Error(), "dropped") {
		t.Fatalf("dropped status not recorded: %v", sw.encodeErr)
	}
	if sw.status != http.StatusTooManyRequests {
		t.Fatalf("recorded status = %d, want 429", sw.status)
	}
}

// discardWriter is a Write sink that cannot allocate.
type discardWriter struct{ n int }

func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestCachedHitServesStoredBytesWithoutAllocating pins the tail of the
// cached-hit path: once the key is known, serving the stored document is a
// map lookup plus one Write of the stored canonical bytes — zero heap
// allocations. It does not cover the request: decoding, resolving the
// fault list and deriving the key come first and do allocate;
// TestCachedHitThroughHandlerAllocations bounds the whole hit.
func TestCachedHitServesStoredBytesWithoutAllocating(t *testing.T) {
	c := newResultCache(8)
	key := strings.Repeat("ab", 32)
	body := []byte(`{"test":{"name":"March X"},"cache_key":"` + key + `"}`)
	c.Put(key, body)

	sink := &discardWriter{}
	allocs := testing.AllocsPerRun(200, func() {
		b, ok := c.Get(key)
		if !ok {
			t.Fatal("cache miss")
		}
		sink.Write(b)
	})
	if allocs != 0 {
		t.Fatalf("cached-hit path allocates %.1f times per request, want 0", allocs)
	}
	if sink.n == 0 {
		t.Fatal("nothing written")
	}
}

// TestCachedHitThroughHandlerAllocations bounds the allocations of a whole
// List #2 /v1/generate cache hit through Server.Handler(): routing, body
// decoding, resolving the named list, the cache key, the lookup and the
// write, plus httptest's request and recorder. Resolving the list and
// encoding the key are the costly steps; the bound fails if either goes
// back to allocating per rejected primitive pair or per encoded field.
func TestCachedHitThroughHandlerAllocations(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const body = `{"list":"list2"}`
	w := do(t, s, "POST", "/v1/generate", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("cold POST: status %d: %s", w.Code, w.Body.String())
	}
	if j := pollJob(t, s, decode[jobEnvelope](t, w).Job.ID); j.Status != JobDone {
		t.Fatalf("job = %+v, want done", j)
	}

	h := s.Handler()
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/generate", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("hit: status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	})
	if allocs > 250 {
		t.Fatalf("a List #2 cache hit allocates %.0f times through the handler, want at most 250", allocs)
	}
}

// TestCachePersistenceRoundTrip covers the write-through store: entries
// land as <dir>/<key>.json, eviction deletes files, and a fresh cache
// warm-starts the newest entries back into memory.
func TestCachePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := func(i int) string { return strings.Repeat("0", 62) + string(rune('a'+i)) + "0" }

	c := newResultCache(3)
	if err := c.enablePersist(dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Put(key(i), []byte{byte('A' + i)})
		// Distinct mtimes so warm-start recency ordering is deterministic on
		// coarse filesystem timestamps.
		past := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, key(i)+".json"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 3 {
		t.Fatalf("persisted files = %v (err %v), want 3", files, err)
	}

	// Stray files must be ignored by warm-start and never served.
	os.WriteFile(filepath.Join(dir, "README.json"), []byte("not a key"), 0o644)
	os.WriteFile(filepath.Join(dir, strings.Repeat("z", 64)+".json"), []byte("bad hex"), 0o644)

	// A fresh cache (capacity 2) warm-starts only the 2 newest entries.
	c2 := newResultCache(2)
	if err := c2.enablePersist(dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	if got := c2.Len(); got != 2 {
		t.Fatalf("warm-started entries = %d, want 2", got)
	}
	if _, ok := c2.Get(key(0)); ok {
		t.Fatal("oldest entry survived a smaller warm-start capacity")
	}
	for i := 1; i < 3; i++ {
		val, ok := c2.Get(key(i))
		if !ok || len(val) != 1 || val[0] != byte('A'+i) {
			t.Fatalf("entry %d after warm-start = %q ok=%v", i, val, ok)
		}
	}

	// Eviction removes the entry's file; the stray files are not ours to
	// touch.
	c2.Put(key(3), []byte("D")) // capacity 2: evicts the LRU entry
	left, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	byName := make(map[string]bool, len(left))
	for _, f := range left {
		byName[filepath.Base(f)] = true
	}
	if byName[key(1)+".json"] {
		t.Fatalf("evicted entry's file still on disk: %v", left)
	}
	if !byName[key(3)+".json"] || !byName["README.json"] {
		t.Fatalf("unexpected file set after eviction: %v", left)
	}
}

// TestWarmStartServesAcrossRestart proves the end-to-end degrade story: a
// result computed before a restart is served as a cache hit by the next
// process generation, straight from the persisted working set.
func TestWarmStartServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"list":"list2"}`

	s1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	w := do(t, s1, "POST", "/v1/generate", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("generate: %d: %s", w.Code, w.Body.String())
	}
	id := decode[jobEnvelope](t, w).Job.ID
	if j := pollJob(t, s1, id); j.Status != JobDone {
		t.Fatalf("job ended %s: %s", j.Status, j.Error)
	}
	// The raw result endpoint serves the exact cached bytes (the job
	// snapshot re-indents its inlined copy).
	rw := do(t, s1, "GET", "/v1/jobs/"+id+"/result", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("job result: %d: %s", rw.Code, rw.Body.String())
	}
	first := rw.Body.Bytes()

	s2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	w2 := do(t, s2, "POST", "/v1/generate", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("restarted server missed the warm cache: %d: %s", w2.Code, w2.Body.String())
	}
	if w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", w2.Header().Get("X-Cache"))
	}
	if string(first) != w2.Body.String() {
		t.Fatal("warm-started response is not byte-identical to the original")
	}
}

// TestHugeTimeoutMeansServerMaximum: a millisecond count whose duration
// overflows int64 must read as "as long as the server allows", in the body's
// timeout_ms and in an integer X-Deadline alike, not wrap into a
// sub-millisecond deadline.
func TestHugeTimeoutMeansServerMaximum(t *testing.T) {
	const huge = "18446744073710" // × 1 ms wraps to about 448 µs
	s := newTestServer(t, Config{Workers: 1})

	w := do(t, s, "POST", "/v1/generate", `{"list":"list1","timeout_ms":`+huge+`}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("generate: %d: %s", w.Code, w.Body.String())
	}
	if j := pollJob(t, s, decode[jobEnvelope](t, w).Job.ID); j.Status != JobDone {
		t.Fatalf("job with timeout_ms %s = %+v, want done", huge, j)
	}

	r := httptest.NewRequest("POST", "/v1/simulate",
		strings.NewReader(`{"march":{"name":"March SL"},"list":"list1"}`))
	r.Header.Set("X-Deadline", huge)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate with X-Deadline %s: %d: %s", huge, rec.Code, rec.Body.String())
	}
}

// TestRequestTimeoutHeader pins the X-Deadline contract: duration or
// integer milliseconds, tightened against the body's timeout_ms.
func TestRequestTimeoutHeader(t *testing.T) {
	req := func(h string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/generate", nil)
		if h != "" {
			r.Header.Set("X-Deadline", h)
		}
		return r
	}
	for _, tc := range []struct {
		header string
		bodyMS int64
		want   time.Duration
		bad    bool
	}{
		{"", 0, 0, false},
		{"", 1500, 1500 * time.Millisecond, false},
		{"2s", 0, 2 * time.Second, false},
		{"250", 0, 250 * time.Millisecond, false},
		{"2s", 5000, 2 * time.Second, false},  // header tightens body
		{"10s", 3000, 3 * time.Second, false}, // body already tighter
		{"1.5s", 0, 1500 * time.Millisecond, false},
		{"-1s", 0, 0, true},
		{"0", 0, 0, true},
		{"soon", 0, 0, true},
	} {
		got, err := requestTimeout(req(tc.header), tc.bodyMS)
		if tc.bad {
			if err == nil {
				t.Errorf("X-Deadline %q accepted as %s", tc.header, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("requestTimeout(%q, %d) = %s, %v; want %s", tc.header, tc.bodyMS, got, err, tc.want)
		}
	}
}

// TestShedsCountedOnce: /metrics reads its per-class shed counts from the
// admission controller, so sheds_by_class and admission.<class>.sheds_total
// agree for every class after generate and simulate sheds.
func TestShedsCountedOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	holdID := holdWorker(t, s, "fill-0")
	wB := do(t, s, "POST", "/v1/generate", `{"list":"list1","options":{"name":"fill-1"}}`)
	if wB.Code != http.StatusAccepted {
		t.Fatalf("queued POST: %d: %s", wB.Code, wB.Body.String())
	}
	for i := 0; i < 2; i++ {
		if w := do(t, s, "POST", "/v1/generate", `{"list":"list1","options":{"name":"shed"}}`); w.Code != http.StatusTooManyRequests {
			t.Fatalf("generate over budget: %d, want 429", w.Code)
		}
	}
	for i := 0; i < 2; i++ {
		if shed := s.admit.acquire(classSimulate); shed != nil {
			t.Fatalf("hold simulate slot %d: %v", i, shed)
		}
	}
	if w := do(t, s, "POST", "/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("simulate over budget: %d, want 429", w.Code)
	}
	s.admit.release(classSimulate)
	s.admit.release(classSimulate)

	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.ShedsByClass["generate"] != 2 || m.ShedsByClass["simulate"] != 1 {
		t.Fatalf("sheds_by_class = %v, want generate 2 and simulate 1", m.ShedsByClass)
	}
	for c, cs := range m.Admission {
		if m.ShedsByClass[c] != cs.Sheds {
			t.Errorf("class %s: sheds_by_class %d, admission sheds_total %d", c, m.ShedsByClass[c], cs.Sheds)
		}
	}
	for _, id := range []string{holdID, decode[jobEnvelope](t, wB).Job.ID} {
		do(t, s, "DELETE", "/v1/jobs/"+id, "")
	}
}
