package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// wordSection / mportSection mirror the axis sections of the generate and
// simulate result documents.
type wordSection struct {
	Width       int    `json:"width"`
	Backgrounds int    `json:"backgrounds"`
	Faults      int    `json:"faults"`
	Detected    int    `json:"detected"`
	Transparent bool   `json:"transparent"`
	TranspTest  string `json:"transparent_test"`
	TranspDet   int    `json:"transparent_detected"`
}

type mportSection struct {
	Ports          int    `json:"ports"`
	Faults         int    `json:"faults"`
	LiftedDetected int    `json:"lifted_detected"`
	Test           string `json:"test"`
	TestLength     int    `json:"test_length"`
	TestDetected   int    `json:"test_detected"`
}

// TestSimulateAxisSections: a width/ports config adds the word and mport
// sections to the simulate response; the default config omits both keys
// entirely (the pre-axis response shape).
func TestSimulateAxisSections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	w := do(t, s, "POST", "/v1/simulate",
		`{"march":{"name":"March SL"},"list":"list2","config":{"width":4,"ports":2}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d: %s", w.Code, w.Body.String())
	}
	out := decode[struct {
		Word  *wordSection  `json:"word"`
		Mport *mportSection `json:"mport"`
	}](t, w)
	if out.Word == nil || out.Word.Width != 4 || out.Word.Backgrounds != 3 ||
		out.Word.Faults == 0 || out.Word.Detected == 0 {
		t.Fatalf("word section = %+v", out.Word)
	}
	if out.Mport == nil || out.Mport.Ports != 2 || out.Mport.Faults == 0 ||
		out.Mport.Test == "" || out.Mport.TestDetected != out.Mport.Faults {
		t.Fatalf("mport section = %+v", out.Mport)
	}
	// A single-port march lifted to two ports cannot apply simultaneous
	// conditions, so it detects none of the weak faults.
	if out.Mport.LiftedDetected != 0 {
		t.Fatalf("lifted single-port march detected %d weak faults, want 0", out.Mport.LiftedDetected)
	}

	// Default request: the axis keys must not appear at all.
	w2 := do(t, s, "POST", "/v1/simulate", `{"march":{"name":"March SL"},"list":"list2"}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("default simulate: %d: %s", w2.Code, w2.Body.String())
	}
	for _, key := range []string{`"word"`, `"mport"`} {
		if bytes.Contains(w2.Body.Bytes(), []byte(key)) {
			t.Fatalf("default simulate response leaks the %s section: %s", key, w2.Body.String())
		}
	}
}

// TestGenerateAxisSections: width/transparent/ports options flow into the
// generation result document.
func TestGenerateAxisSections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	// list1's generated test starts with a write-only initialization and
	// exits at 0, so it admits the transparent in-field variant.
	w := do(t, s, "POST", "/v1/generate",
		`{"list":"list1","options":{"width":4,"transparent":true,"ports":2}}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body.String())
	}
	env := decode[jobEnvelope](t, w)
	if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
		t.Fatalf("job = %+v", j)
	}
	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d: %s", res.Code, res.Body.String())
	}
	doc := decode[struct {
		Word  *wordSection  `json:"word"`
		Mport *mportSection `json:"mport"`
	}](t, res)
	if doc.Word == nil || doc.Word.Width != 4 || !doc.Word.Transparent {
		t.Fatalf("word section = %+v", doc.Word)
	}
	if doc.Word.TranspTest == "" || doc.Word.TranspDet == 0 {
		t.Fatalf("transparent variant = %+v", doc.Word)
	}
	if doc.Mport == nil || doc.Mport.TestDetected != doc.Mport.Faults {
		t.Fatalf("mport section = %+v", doc.Mport)
	}

	// A test that does not restore memory content has no transparent variant;
	// the job must fail with the transform's diagnostic, not hang or panic.
	w2 := do(t, s, "POST", "/v1/generate",
		`{"list":"list2","options":{"width":4,"transparent":true}}`)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("ineligible POST: status %d: %s", w2.Code, w2.Body.String())
	}
	env2 := decode[jobEnvelope](t, w2)
	j2 := pollJob(t, s, env2.Job.ID)
	if j2.Status != JobFailed || !strings.Contains(j2.Error, "transparent") {
		t.Fatalf("ineligible job = %+v, want failed with a transparent-transform error", j2)
	}
}

// TestVerifyAxisSections: a width/ports config adds per-axis differential
// cross-checks to the verify document, and both implementations must agree
// with the oracle.
func TestVerifyAxisSections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	w := do(t, s, "POST", "/v1/verify",
		`{"march":{"name":"March SS"},"list":"list2","config":{"width":4,"ports":2}}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body.String())
	}
	env := decode[jobEnvelope](t, w)
	if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
		t.Fatalf("job = %+v", j)
	}
	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d: %s", res.Code, res.Body.String())
	}
	doc := decode[struct {
		Agree bool `json:"agree"`
		Word  *struct {
			Width       int      `json:"width"`
			Faults      int      `json:"faults"`
			Agree       bool     `json:"agree"`
			Divergences []string `json:"divergences"`
		} `json:"word"`
		Mport *struct {
			Ports       int      `json:"ports"`
			Faults      int      `json:"faults"`
			Agree       bool     `json:"agree"`
			Divergences []string `json:"divergences"`
		} `json:"mport"`
	}](t, res)
	if !doc.Agree {
		t.Fatalf("bit-level cross-check diverged: %s", res.Body.String())
	}
	if doc.Word == nil || doc.Word.Width != 4 || !doc.Word.Agree || len(doc.Word.Divergences) != 0 {
		t.Fatalf("word cross-check = %+v", doc.Word)
	}
	if doc.Mport == nil || doc.Mport.Ports != 2 || !doc.Mport.Agree || len(doc.Mport.Divergences) != 0 {
		t.Fatalf("mport cross-check = %+v", doc.Mport)
	}
}

// TestOptimizeBISTWeightChangesKey: the bist_weight knob is part of the
// optimizer's fitness, so it must be part of the content address — a
// weighted run must never be served a weight-free cached result.
func TestOptimizeBISTWeightChangesKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	run := func(body string) optimizeDoc {
		w := do(t, s, "POST", "/v1/optimize", body)
		if w.Code == http.StatusOK { // cache hit: the result document directly
			return decode[optimizeDoc](t, w)
		}
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST %s: status %d: %s", body, w.Code, w.Body.String())
		}
		env := decode[jobEnvelope](t, w)
		if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
			t.Fatalf("job = %+v", j)
		}
		res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
		if res.Code != http.StatusOK {
			t.Fatalf("result: %d: %s", res.Code, res.Body.String())
		}
		return decode[optimizeDoc](t, res)
	}

	plain := run(`{"list":"list2","march":{"name":"March ABL1"},"budget":200}`)
	weighted := run(`{"list":"list2","march":{"name":"March ABL1"},"budget":200,"bist_weight":0.5}`)
	if plain.Key == weighted.Key {
		t.Fatalf("bist_weight did not change the cache key %s", plain.Key)
	}
	for _, doc := range []optimizeDoc{plain, weighted} {
		if doc.Report.Coverage != 100 {
			t.Fatalf("optimizer lost coverage: %+v", doc.Report)
		}
	}
	// And a spelled-out zero weight is the default spelling: same key.
	zero := run(`{"list":"list2","march":{"name":"March ABL1"},"budget":200,"bist_weight":0}`)
	if zero.Key != plain.Key {
		t.Fatalf("bist_weight:0 got its own key %s (default %s)", zero.Key, plain.Key)
	}
}

// Two-port digests captured on the build that still generated the catalog
// march per process (mport.Generate behind a sync.Once in core), before it
// became the mport.March2P library test. They pin what a two-port request
// answers: the whole /v1/simulate body, and the mport object of a
// /v1/generate result (the document around it carries timings).
const (
	twoPortSimulateSHA      = "a6908c5b8f6030b376799ee55b6732c375e3f56ed16d9381e717e60ff0c2bce8"
	twoPortGenerateMportSHA = "5b38829756a3518744278b6632f00c28e631bd21e1956ba196ac32794252ebcb"
)

// TestTwoPortBytesPinned replays a ports-2 simulate and a ports-2 generate
// against the pinned digests.
func TestTwoPortBytesPinned(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	check := func(name string, b []byte, want string) {
		t.Helper()
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: digest %s, want %s; bytes %s", name, got, want, b)
		}
	}

	w := do(t, s, "POST", "/v1/simulate",
		`{"march":{"name":"March SL"},"list":"list2","config":{"width":4,"ports":2}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d: %s", w.Code, w.Body.String())
	}
	check("simulate body", w.Body.Bytes(), twoPortSimulateSHA)

	g := do(t, s, "POST", "/v1/generate", `{"list":"list2","options":{"ports":2}}`)
	if g.Code != http.StatusAccepted {
		t.Fatalf("generate: %d: %s", g.Code, g.Body.String())
	}
	env := decode[jobEnvelope](t, g)
	if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
		t.Fatalf("job = %+v", j)
	}
	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	if res.Code != http.StatusOK {
		t.Fatalf("result: %d: %s", res.Code, res.Body.String())
	}
	doc := decode[struct {
		Mport json.RawMessage `json:"mport"`
	}](t, res)
	check("generate mport object", doc.Mport, twoPortGenerateMportSHA)
}
