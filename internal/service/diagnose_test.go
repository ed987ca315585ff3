package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"marchgen"
	"marchgen/internal/diagnose"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// diagnoseDoc mirrors the wire form of a diagnosis result document.
type diagnoseDoc struct {
	Candidates []struct {
		Placement []int  `json:"placement"`
		ID        string `json:"id"`
	} `json:"candidates"`
	Status string `json:"status"`
	Next   *struct {
		Name string `json:"name"`
		Spec string `json:"spec"`
	} `json:"next,omitempty"`
	Observations int    `json:"observations"`
	Key          string `json:"cache_key"`
}

// deviceSyndrome plays the tester's role: it executes the march on a
// simulated device carrying the injected fault instance and returns the
// failing reads in wire form. It goes through diagnose.Build — the same
// canonical conventions (all-zero init, ⇕ resolved upward) the service's
// localization uses — so the test exchanges nothing with the server beyond
// what a real tester would: march specs out, syndromes back.
func deviceSyndrome(t *testing.T, m march.Test, truth linked.Fault, cell int) []string {
	t.Helper()
	d, err := diagnose.Build(m, []linked.Fault{truth}, sim.Config{Size: 4})
	if err != nil {
		t.Fatalf("device simulation of %s: %v", m.Name, err)
	}
	for _, e := range d.Entries {
		if e.Placement[0] != cell {
			continue
		}
		ids := make([]string, 0, len(e.Syndrome))
		for r := range e.Syndrome {
			ids = append(ids, r.String())
		}
		sort.Strings(ids)
		return ids
	}
	t.Fatalf("no placement %d entry for %s", cell, m.Name)
	return nil
}

type obsWire struct {
	March    map[string]string `json:"march"`
	Syndrome []string          `json:"syndrome"`
}

func diagnoseBody(t *testing.T, list string, obs []obsWire) string {
	t.Helper()
	b, err := json.Marshal(struct {
		List         string    `json:"list"`
		Observations []obsWire `json:"observations"`
	}{list, obs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// diagnoseRound drives one POST /v1/diagnose round: miss → 202 → poll →
// result document (or, on a cache hit, the 200 body directly). It returns
// the document's bytes and the X-Cache header of the POST.
func diagnoseRound(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	w := do(t, s, "POST", "/v1/diagnose", body)
	switch w.Code {
	case http.StatusOK:
		return w, w.Header().Get("X-Cache")
	case http.StatusAccepted:
		env := decode[jobEnvelope](t, w)
		if j := pollJob(t, s, env.Job.ID); j.Status != JobDone {
			t.Fatalf("diagnose job = %+v", j)
		}
		res := do(t, s, "GET", "/v1/jobs/"+env.Job.ID+"/result", "")
		if res.Code != http.StatusOK {
			t.Fatalf("diagnose result: %d: %s", res.Code, res.Body.String())
		}
		return res, w.Header().Get("X-Cache")
	default:
		t.Fatalf("POST /v1/diagnose: %d: %s", w.Code, w.Body.String())
		return nil, ""
	}
}

// postDiagnose is diagnoseRound with the document decoded.
func postDiagnose(t *testing.T, s *Server, body string) (diagnoseDoc, string) {
	t.Helper()
	w, xc := diagnoseRound(t, s, body)
	return decode[diagnoseDoc](t, w), xc
}

// TestDiagnoseLocalizesInjectedFault is the PR's acceptance test: a write
// destructive fault is injected at cell 2 of a simulated 4-cell device, and
// the service localizes it from syndromes alone. The tester-side loop only
// ever executes marches the server recommends and reports which reads
// failed; after enough observations the candidate set must collapse to
// exactly the injected instance.
func TestDiagnoseLocalizesInjectedFault(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	truth, err := linked.NewSimple(fp.MustParseFP("<0w0/1/->")) // WDF0
	if err != nil {
		t.Fatal(err)
	}
	const cell = 2

	// The first executed test is MATS+ — deliberately a weak diagnoser, so
	// the adaptive half of the endpoint has real work to do.
	start, ok := marchgen.MarchByName("MATS+")
	if !ok {
		t.Fatal("no MATS+ in the library")
	}
	obs := []obsWire{{
		March:    map[string]string{"name": start.Name},
		Syndrome: deviceSyndrome(t, start, truth, cell),
	}}

	doc, _ := postDiagnose(t, s, diagnoseBody(t, "simple1", obs))
	if doc.Status != "ambiguous" {
		t.Fatalf("MATS+ alone: status %q (candidates %d), want ambiguous", doc.Status, len(doc.Candidates))
	}
	if doc.Next == nil || doc.Next.Spec == "" {
		t.Fatalf("ambiguous result carries no follow-up test: %+v", doc)
	}

	for round := 0; doc.Status == "ambiguous"; round++ {
		if round >= 6 {
			t.Fatalf("no convergence after %d rounds; candidates %d", round, len(doc.Candidates))
		}
		if doc.Next == nil {
			t.Fatalf("round %d: ambiguous with no follow-up (stable set): %+v", round, doc.Candidates)
		}
		next, err := marchgen.ParseMarch(doc.Next.Name, doc.Next.Spec)
		if err != nil {
			t.Fatalf("round %d: recommended spec %q does not parse: %v", round, doc.Next.Spec, err)
		}
		obs = append(obs, obsWire{
			March:    map[string]string{"name": doc.Next.Name, "spec": doc.Next.Spec},
			Syndrome: deviceSyndrome(t, next, truth, cell),
		})
		doc, _ = postDiagnose(t, s, diagnoseBody(t, "simple1", obs))
		if doc.Observations != len(obs) {
			t.Fatalf("round %d: observations = %d, want %d", round, doc.Observations, len(obs))
		}
	}

	if doc.Status != "localized" || len(doc.Candidates) != 1 {
		t.Fatalf("final status %q with %d candidates, want localized singleton", doc.Status, len(doc.Candidates))
	}
	got := doc.Candidates[0]
	want := fmt.Sprintf("%s@%d", truth.ID(), cell)
	if got.ID != want || len(got.Placement) != 1 || got.Placement[0] != cell {
		t.Fatalf("localized %q at %v, injected %q", got.ID, got.Placement, want)
	}
	if doc.Next != nil {
		t.Fatalf("localized result still recommends a follow-up: %+v", doc.Next)
	}

	// The same observation sequence again is a pure cache hit.
	doc2, xc := postDiagnose(t, s, diagnoseBody(t, "simple1", obs))
	if xc != "hit" {
		t.Fatalf("repeat POST: X-Cache %q, want hit", xc)
	}
	if doc2.Key != doc.Key || doc2.Status != "localized" {
		t.Fatalf("cache replay diverged: %+v vs %+v", doc2, doc)
	}
}

// TestDiagnoseContradictorySyndromes: a syndrome no fault model can produce
// must end empty, not error — real testers see defects outside the model
// space.
func TestDiagnoseContradictorySyndromes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	obs := []obsWire{{
		March:    map[string]string{"name": "MATS+"},
		Syndrome: []string{"M0#0@0"}, // MATS+ element 0 is write-only: impossible
	}}
	doc, _ := postDiagnose(t, s, diagnoseBody(t, "simple1", obs))
	if doc.Status != "empty" || len(doc.Candidates) != 0 || doc.Next != nil {
		t.Fatalf("impossible syndrome: %+v, want empty with no follow-up", doc)
	}
}

// TestDiagnoseBadRequests pins the input validation of the endpoint.
func TestDiagnoseBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"no observations", `{"list":"simple1"}`},
		{"empty observations", `{"list":"simple1","observations":[]}`},
		{"no fault space", `{"observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`},
		{"unknown list", `{"list":"nope","observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`},
		{"unknown march", `{"list":"simple1","observations":[{"march":{"name":"March XYZ"},"syndrome":[]}]}`},
		{"malformed syndrome", `{"list":"simple1","observations":[{"march":{"name":"MATS+"},"syndrome":["bogus"]}]}`},
		{"unknown field", `{"list":"simple1","bogus":1,"observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`},
		{"not json", `{"list":`},
		{"memory too large", `{"list":"simple1","config":{"size":17},"observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}`},
	}
	for _, tc := range cases {
		if w := do(t, s, "POST", "/v1/diagnose", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
	// Wrong method.
	if w := do(t, s, "GET", "/v1/diagnose", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	}
}

// TestDiagnoseEquivalentSpellingsShareCacheKey: naming a march and spelling
// out its element string must hash to the same job — the cache key is built
// from the resolved test, not the request text.
func TestDiagnoseEquivalentSpellingsShareCacheKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	truth, err := linked.NewSimple(fp.MustParseFP("<0w0/1/->"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := marchgen.MarchByName("MATS+")
	syn := deviceSyndrome(t, m, truth, 2)

	byName := diagnoseBody(t, "simple1", []obsWire{{March: map[string]string{"name": m.Name}, Syndrome: syn}})
	doc, _ := postDiagnose(t, s, byName)

	bySpec := diagnoseBody(t, "simple1", []obsWire{{March: map[string]string{"name": m.Name, "spec": m.ASCII()}, Syndrome: syn}})
	doc2, xc := postDiagnose(t, s, bySpec)
	if xc != "hit" {
		t.Fatalf("spelled-out spec missed the cache (X-Cache %q); keys %s vs %s", xc, doc.Key, doc2.Key)
	}
	if doc2.Key != doc.Key {
		t.Fatalf("equivalent spellings got distinct keys %s / %s", doc.Key, doc2.Key)
	}
	// Syndrome order must not matter either: reverse it.
	rev := append([]string(nil), syn...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if len(rev) > 1 {
		reordered := diagnoseBody(t, "simple1", []obsWire{{March: map[string]string{"name": m.Name}, Syndrome: rev}})
		if _, xc := postDiagnose(t, s, reordered); xc != "hit" {
			t.Fatalf("reordered syndrome missed the cache (X-Cache %q)", xc)
		}
	}
}

// The literal digests below were captured before localization moved onto
// compiled schedules. Each is the SHA-256 of a whole /v1/diagnose result
// document on the simple list — candidates in order, status, follow-up
// march, config echo and cache key — so any change in what the engine
// computes or how the endpoint renders it shows here.
const (
	diagnoseAmbiguousSHA = "127b3a3479efcea62fa5d72ecec264ecf225ef576face271d4934378568782ff"
	diagnoseLocalizedSHA = "bcd6efe870f567049556ea01913435248e25cc440d8641ecd58bb7fbe58545b4"
	diagnoseEmptySHA     = "950ed4a8b1ba9425d54bf187f3115cfdeea1323541838e707ae128ebda962865"
)

// TestDiagnoseResponseBytesPinned replays three requests against the pinned
// digests: MATS+ on a WDF0 at cell 2 (ambiguous, with a follow-up), the
// same device after the recommended follow-up (localized), and MATS+'s
// impossible M0#0@0 (empty).
func TestDiagnoseResponseBytesPinned(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	check := func(name, body, want string) diagnoseDoc {
		t.Helper()
		w, _ := diagnoseRound(t, s, body)
		sum := sha256.Sum256(w.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("%s: response digest %s, want %s; body %s", name, got, want, w.Body.String())
		}
		return decode[diagnoseDoc](t, w)
	}

	truth, err := linked.NewSimple(fp.MustParseFP("<0w0/1/->")) // WDF0
	if err != nil {
		t.Fatal(err)
	}
	obs := []obsWire{{
		March:    map[string]string{"name": march.MATSPlus.Name},
		Syndrome: deviceSyndrome(t, march.MATSPlus, truth, 2),
	}}
	doc := check("ambiguous", diagnoseBody(t, "simple", obs), diagnoseAmbiguousSHA)
	if doc.Next == nil {
		t.Fatal("ambiguous result carries no follow-up test")
	}
	next, err := marchgen.ParseMarch(doc.Next.Name, doc.Next.Spec)
	if err != nil {
		t.Fatal(err)
	}
	obs = append(obs, obsWire{
		March:    map[string]string{"name": doc.Next.Name, "spec": doc.Next.Spec},
		Syndrome: deviceSyndrome(t, next, truth, 2),
	})
	check("localized", diagnoseBody(t, "simple", obs), diagnoseLocalizedSHA)
	check("empty", diagnoseBody(t, "simple", []obsWire{{
		March:    map[string]string{"name": march.MATSPlus.Name},
		Syndrome: []string{"M0#0@0"},
	}}), diagnoseEmptySHA)
}
