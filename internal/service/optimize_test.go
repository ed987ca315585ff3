package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// optimizeDoc is the shape of the /v1/optimize result document the tests
// care about.
type optimizeDoc struct {
	Test struct {
		Name   string `json:"name"`
		Spec   string `json:"spec"`
		Length int    `json:"length"`
		Origin string `json:"origin"`
		Prov   struct {
			Seed      int64  `json:"seed"`
			Budget    int    `json:"budget"`
			SeedTest  string `json:"seed_test"`
			MoveTrace string `json:"move_trace"`
		} `json:"provenance"`
	} `json:"test"`
	Seed struct {
		Name   string `json:"name"`
		Length int    `json:"length"`
	} `json:"seed"`
	Report struct {
		Coverage float64 `json:"coverage_percent"`
		Total    int     `json:"total"`
	} `json:"report"`
	Stats struct {
		Evaluations int  `json:"evaluations"`
		Improved    bool `json:"improved"`
	} `json:"stats"`
	Key string `json:"cache_key"`
}

func TestOptimizeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	body := `{"list":"list2","march":{"name":"March ABL1"},"budget":300,"name":"March OPT svc"}`
	w := do(t, s, "POST", "/v1/optimize", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", w.Code, w.Body.String())
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
	doc := decode[optimizeDoc](t, res)
	if doc.Seed.Name != "March ABL1" || doc.Seed.Length != 9 {
		t.Fatalf("seed = %+v", doc.Seed)
	}
	if doc.Test.Length > 9 || doc.Test.Origin != "optimized" {
		t.Fatalf("winner = %+v", doc.Test)
	}
	if doc.Test.Prov.SeedTest != "March ABL1" || doc.Test.Prov.MoveTrace == "" {
		t.Fatalf("provenance = %+v", doc.Test.Prov)
	}
	if doc.Report.Coverage != 100 || doc.Report.Total != 18 {
		t.Fatalf("report = %+v", doc.Report)
	}
	if !doc.Stats.Improved || doc.Stats.Evaluations == 0 {
		t.Fatalf("stats = %+v", doc.Stats)
	}

	// Repeat request: byte-identical cache hit.
	w2 := do(t, s, "POST", "/v1/optimize", body)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w2.Body.Bytes(), res.Body.Bytes()) {
		t.Fatal("cache hit bytes differ from the job's result document")
	}

	// A twin with the defaults spelled out shares the cache entry.
	twin := `{"list":"list2","march":{"name":"March ABL1"},"budget":300,"name":"March OPT svc","seed":1,"beam_width":4,"restarts":3}`
	w3 := do(t, s, "POST", "/v1/optimize", twin)
	if w3.Code != http.StatusOK || w3.Header().Get("X-Cache") != "hit" {
		t.Fatalf("canonical twin: status %d X-Cache %q", w3.Code, w3.Header().Get("X-Cache"))
	}

	// The improved winner landed in the runtime library with its origin.
	lib := decode[struct {
		Tests []struct {
			Name   string `json:"name"`
			Origin string `json:"origin"`
		} `json:"tests"`
	}](t, do(t, s, "GET", "/v1/library", ""))
	found := false
	for _, tt := range lib.Tests {
		if tt.Name == "March OPT svc" && tt.Origin == "optimized" {
			found = true
		}
	}
	if !found {
		t.Fatalf("optimized winner missing from /v1/library: %+v", lib.Tests)
	}

	// Metrics saw the run, the improvement and live evaluation progress.
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.OptimizeRuns != 1 || m.OptimizeImproved != 1 {
		t.Fatalf("optimize counters = runs %d improved %d", m.OptimizeRuns, m.OptimizeImproved)
	}
	if m.OptimizeEvaluations != int64(doc.Stats.Evaluations) {
		t.Fatalf("optimize_evaluations = %d, want %d", m.OptimizeEvaluations, doc.Stats.Evaluations)
	}
}

func TestOptimizeGeneratedSeed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	w := do(t, s, "POST", "/v1/optimize", `{"list":"list2","budget":150}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body.String())
	}
	env := decode[jobEnvelope](t, w)
	j := pollJob(t, s, env.Job.ID)
	if j.Status != JobDone {
		t.Fatalf("job = %+v, want done", j)
	}
	res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
	doc := decode[optimizeDoc](t, res)
	if doc.Seed.Length == 0 || doc.Test.Length > doc.Seed.Length {
		t.Fatalf("winner %dn vs generated seed %dn", doc.Test.Length, doc.Seed.Length)
	}
}

func TestOptimizeBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, wantErr string
	}{
		{"no faults", `{}`, "bad fault spec"},
		{"unknown list", `{"list":"nope"}`, "bad fault spec"},
		{"unknown seed test", `{"list":"list2","march":{"name":"No Such"}}`, "bad march spec"},
		{"inconsistent seed spec", `{"list":"list2","march":{"spec":"c(w0) c(r1)"}}`, "bad march spec"},
		{"unknown field", `{"list":"list2","bogus":1}`, "bad request body"},
	}
	for _, c := range cases {
		w := do(t, s, "POST", "/v1/optimize", c.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), c.wantErr) {
			t.Errorf("%s: status %d body %s", c.name, w.Code, w.Body.String())
		}
	}
}

// TestOptimizeKeyPinned pins the /v1/optimize cache key of a library seed
// and of a generated seed, each requested twice: with the search knobs
// omitted and with every one of them spelled out at its default. Both
// spellings of a seed derive the same key, whose digest was taken before
// the service left filling the defaults to optimize.Options.Canonical.
func TestOptimizeKeyPinned(t *testing.T) {
	for _, c := range []struct {
		name     string
		bodies   []string
		wantHash string
	}{
		{"library seed", []string{
			`{"list":"list2","march":{"name":"March ABL1"}}`,
			`{"list":"list2","march":{"name":"March ABL1"},"name":"March OPT","seed":1,"budget":2000,"beam_width":4,"restarts":3}`,
		}, "63b65b75107f6dfd17b05d4e8b999556c9b1bc8bd441be62a1390c663e4413d3"},
		{"generated seed", []string{
			`{"list":"list2"}`,
			`{"list":"list2","name":"March OPT","seed":1,"budget":2000,"beam_width":4,"restarts":3,"generator":{}}`,
		}, "33d09ea67afb48110bba15032c9dbc2a619b89c94170490decd88f1abf11bfea"},
	} {
		for _, body := range c.bodies {
			var req optimizeRequest
			if err := decodeBody(httptest.NewRequest("POST", "/v1/optimize", strings.NewReader(body)), &req); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			faults, err := req.resolve()
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			seedTest, opts, err := req.options()
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			key, err := optimizeKey(faults, seedTest, opts)
			if err != nil {
				t.Fatal(err)
			}
			if key != c.wantHash {
				t.Errorf("%s: %s keys to %s, want %s", c.name, body, key, c.wantHash)
			}
		}
	}
}
