package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// syncFault is the canonical LF1 the detects pins ask about: March SL
// detects it, MATS+ misses it with a witness.
const syncFault = `{"kind":"LF1","fps":["<0w1/0/->","<0r0/1/0>"]}`

// any13 is a 13-element test of ⇕ elements only, one past the exhaustive
// order expansion's default cap of 12, so the default config answers 422.
var any13 = "c(w0)" + strings.Repeat(" c(r0)", 12)

// syncPins are bit-oriented synchronous answers captured over HTTP on the
// build that still raced the simulator in a goroutine under
// http.TimeoutHandler: the status, every response header but Date, and the
// SHA-256 of the body.
var syncPins = []struct {
	path, body string
	status     int
	headers    string
	sha        string
}{
	{"/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`,
		200, "Content-Length: 445; Content-Type: application/json",
		"31a40027de4297fb7608f1e74730986acd94c055d4eaffa538e3ce6c46f1def9"},
	{"/v1/simulate", `{"march":{"name":"MATS+"},"list":"list2"}`,
		200, "Content-Length: 1704; Content-Type: application/json",
		"65dd6e015a4f791658a4c8d704354b7bf6d994aae48e4733beb8be6f7ecd0d97"},
	{"/v1/simulate", `{"march":{"spec":"c(w0) ^(r0,w1) v(r1,w0)"},"list":"simple1"}`,
		200, "Content-Length: 957; Content-Type: application/json",
		"a52b64b86861792eb728581d477084f1d900fcbd19467250589e3cf5fde61a22"},
	{"/v1/simulate", `{"march":{"spec":"` + any13 + `"},"list":"list2"}`,
		422, "Content-Length: 118; Content-Type: application/json",
		"349f227f45016a24dd3a36ca8f4b5152bc2e6b494fc83f067b6472a7290d2c96"},
	{"/v1/detects", `{"march":{"name":"March SL"},"fault":` + syncFault + `}`,
		200, "Content-Length: 136; Content-Type: application/json",
		"635a9cca35581a2f957c3ccfeb905af0aeea41613a5959b7cdd7ab9eb29b9c74"},
	{"/v1/detects", `{"march":{"name":"MATS+"},"fault":` + syncFault + `}`,
		200, "Content-Length: 179; Content-Type: application/json",
		"267ac658503ab874685840f3d68294b0a44d885b1b22bd4025ed544b9ff99ff5"},
	{"/v1/detects", `{"march":{"spec":"` + any13 + `"},"fault":` + syncFault + `}`,
		422, "Content-Length: 118; Content-Type: application/json",
		"349f227f45016a24dd3a36ca8f4b5152bc2e6b494fc83f067b6472a7290d2c96"},
}

// TestSyncBytesPinned replays the pinned simulate and detects requests
// through a real listener and compares status, headers and body digest.
func TestSyncBytesPinned(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Config{Workers: 1}).Handler())
	defer ts.Close()
	for _, p := range syncPins {
		resp, err := http.Post(ts.URL+p.path, "application/json", strings.NewReader(p.body))
		if err != nil {
			t.Fatalf("%s %s: %v", p.path, p.body, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read body: %v", p.path, p.body, err)
		}
		var hs []string
		for k, v := range resp.Header {
			if k != "Date" {
				hs = append(hs, k+": "+strings.Join(v, ","))
			}
		}
		sort.Strings(hs)
		sum := sha256.Sum256(body)
		if got := strings.Join(hs, "; "); resp.StatusCode != p.status || got != p.headers {
			t.Errorf("%s %s: status %d, headers %q; want %d, %q", p.path, p.body, resp.StatusCode, got, p.status, p.headers)
		}
		if got := hex.EncodeToString(sum[:]); got != p.sha {
			t.Errorf("%s %s: body digest %s, want %s; body %s", p.path, p.body, got, p.sha, body)
		}
	}
}

// slowSimulate is a size-16 March SS × List #1 simulation: 14–20 ms of
// work on a 2.1 GHz Xeon, long enough for a millisecond deadline to fall
// inside it.
const slowSimulate = `{"march":{"name":"March SS"},"list":"list1","config":{"size":16,"exhaustive_orders":true}}`

// deadlineBody is the 504 answer of a synchronous request whose deadline
// passed before the work returned.
const deadlineBody = "{\n  \"error\": \"deadline exceeded before simulation finished\"\n}\n"

// doDeadline runs one request with an X-Deadline header through the full
// handler stack.
func doDeadline(s *Server, path, body, deadline string) *httptest.ResponseRecorder {
	r := httptest.NewRequest("POST", path, strings.NewReader(body))
	r.Header.Set("X-Deadline", deadline)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// TestSyncDeadlineSimulate: a deadline that passes inside the simulation
// stops it, answers 504, and the admission slot is free by the time the
// handler returns.
func TestSyncDeadlineSimulate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := doDeadline(s, "/v1/simulate", slowSimulate, "2ms")
	if w.Code != http.StatusGatewayTimeout || w.Body.String() != deadlineBody {
		t.Fatalf("X-Deadline 2ms: %d %s, want 504 %s", w.Code, w.Body.String(), deadlineBody)
	}
	if cs := s.admit.snapshot()[string(classSimulate)]; cs.Running != 0 {
		t.Fatalf("simulate class after the 504: %+v, want 0 running", cs)
	}
}

// TestSyncDeadlineFreesSlot: on a one-worker server (two simulate slots),
// two simulations stopped by their deadline leave both slots free for the
// request that follows.
func TestSyncDeadlineFreesSlot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 2; i++ {
		if w := doDeadline(s, "/v1/simulate", slowSimulate, "2ms"); w.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: %d %s, want 504", i, w.Code, w.Body.String())
		}
	}
	if w := do(t, s, "POST", "/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`); w.Code != http.StatusOK {
		t.Fatalf("simulate after two timeouts: %d %s, want 200", w.Code, w.Body.String())
	}
}

// TestSyncDeadlineTimeout: the server's sync timeout is the same deadline
// as X-Deadline and answers the same 504.
func TestSyncDeadlineTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SyncTimeout: time.Millisecond})
	for i := 0; i < 3; i++ {
		w := do(t, s, "POST", "/v1/simulate", slowSimulate)
		if w.Code != http.StatusGatewayTimeout || w.Body.String() != deadlineBody {
			t.Fatalf("run %d under a 1ms sync timeout: %d %s, want 504 %s", i, w.Code, w.Body.String(), deadlineBody)
		}
	}
}

// TestSyncDeadlineDetects: /v1/detects honors X-Deadline like simulate,
// and a malformed header answers 400 before admission is asked.
func TestSyncDeadlineDetects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := `{"march":{"name":"March SL"},"fault":` + syncFault + `}`
	if w := doDeadline(s, "/v1/detects", body, "1ns"); w.Code != http.StatusGatewayTimeout || w.Body.String() != deadlineBody {
		t.Fatalf("X-Deadline 1ns: %d %s, want 504", w.Code, w.Body.String())
	}
	// Hold both simulate slots: a malformed deadline must still be a 400,
	// and a well-formed one a shed.
	for i := 0; i < 2; i++ {
		if shed := s.admit.acquire(classSimulate); shed != nil {
			t.Fatalf("hold slot %d: %v", i, shed)
		}
	}
	defer s.admit.release(classSimulate)
	defer s.admit.release(classSimulate)
	for path, body := range map[string]string{"/v1/detects": body, "/v1/simulate": slowSimulate} {
		w := doDeadline(s, path, body, "soon")
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "X-Deadline") {
			t.Fatalf("%s X-Deadline soon: %d %s, want 400", path, w.Code, w.Body.String())
		}
	}
	if w := doDeadline(s, "/v1/detects", body, "1s"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("X-Deadline 1s with both slots held: %d %s, want 429", w.Code, w.Body.String())
	}
}

// TestRoutePanicInSyncWork: synchronous work runs on the request goroutine,
// so a panic in it is contained by the route (500) and its admission slot
// is released on the way out.
func TestRoutePanicInSyncWork(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	mux := http.NewServeMux()
	s.route(mux, "POST /boom", func(w http.ResponseWriter, r *http.Request) {
		s.serveSync(w, r, func(context.Context) (int, any) { panic("simulation exploded") })
	})
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("POST", "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking sync work: %d %s, want 500", w.Code, w.Body.String())
	}
	if cs := s.admit.snapshot()[string(classSimulate)]; cs.Running != 0 {
		t.Fatalf("simulate class after the panic: %+v, want 0 running", cs)
	}
}
