package service

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pollCampaign polls until the campaign leaves CampaignRunning.
func pollCampaign(t *testing.T, s *Server, id string) Campaign {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		w := do(t, s, "GET", "/v1/campaigns/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, w.Code, w.Body.String())
		}
		c := decode[Campaign](t, w)
		if c.Status != CampaignRunning {
			return c
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return Campaign{}
}

func TestCampaignLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, DataDir: dir})

	spec := `{"name":"svc","lists":["list2"],"orders":["free","up"],"shard_size":1}`
	w := do(t, s, "POST", "/v1/campaigns", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body.String())
	}
	c := decode[Campaign](t, w)
	if c.ID == "" || c.SpecHash == "" || c.Shards.Total != 2 || c.Units.Total != 2 {
		t.Fatalf("campaign = %+v", c)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/campaigns/"+c.ID {
		t.Fatalf("Location = %q", loc)
	}

	done := pollCampaign(t, s, c.ID)
	if done.Status != CampaignDone {
		t.Fatalf("terminal status = %q (%s)", done.Status, done.Error)
	}
	if done.Shards.Committed != 2 || done.Units.Done != 2 || done.Units.Errors != 0 {
		t.Fatalf("progress = %+v", done)
	}
	for i, st := range done.Shards.States {
		if st != "committed" {
			t.Fatalf("shard %d state = %q", i, st)
		}
	}

	// Results: the committed JSONL prefix, one line per unit.
	w = do(t, s, "GET", "/v1/campaigns/"+c.ID+"/results", "")
	if w.Code != http.StatusOK {
		t.Fatalf("results: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("results lines = %d:\n%s", len(lines), w.Body.String())
	}

	// Re-POSTing the same spec is idempotent: 200, same id, no new work.
	w = do(t, s, "POST", "/v1/campaigns", spec)
	if w.Code != http.StatusOK && w.Code != http.StatusAccepted {
		t.Fatalf("re-POST: status %d", w.Code)
	}
	if again := decode[Campaign](t, w); again.ID != c.ID {
		t.Fatalf("re-POST id = %q, want %q", again.ID, c.ID)
	}

	// The list includes it; /metrics counts it.
	w = do(t, s, "GET", "/v1/campaigns", "")
	list := decode[struct {
		Campaigns []Campaign `json:"campaigns"`
	}](t, w)
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != c.ID {
		t.Fatalf("list = %+v", list)
	}
	m := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", ""))
	if m.CampaignsSubmitted == 0 || m.CampaignsDone == 0 {
		t.Fatalf("campaign counters missing: %+v", m)
	}
}

func TestCampaignValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	for _, body := range []string{
		`{"lists":["no-such-list"]}`,
		`{"lists":[]}`,
		`not json`,
	} {
		if w := do(t, s, "POST", "/v1/campaigns", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, w.Code)
		}
	}
	if w := do(t, s, "GET", "/v1/campaigns/c-doesnotexist", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown GET: status %d, want 404", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/campaigns/c-doesnotexist", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown DELETE: status %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/v1/campaigns/c-doesnotexist/results", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown results: status %d, want 404", w.Code)
	}
}

// TestCampaignCapacity: a running campaign holds the campaign class's one
// admission slot, so a second campaign is shed with 429, and the slot is
// free again by the time the first campaign's snapshot is terminal.
func TestCampaignCapacity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CampaignWorkers: 1, DataDir: t.TempDir(), MaxCampaigns: 1})
	// Three list1 units on one campaign worker: still running when the
	// second campaign arrives.
	w := do(t, s, "POST", "/v1/campaigns", `{"name":"slow","lists":["list1"],"orders":["free","up","down"],"shard_size":1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first POST: status %d: %s", w.Code, w.Body.String())
	}
	first := decode[Campaign](t, w)
	if got := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", "")).Admission["campaign"].Running; got != 1 {
		t.Fatalf("admission.campaign.running while a campaign runs = %d, want 1", got)
	}
	w = do(t, s, "POST", "/v1/campaigns", `{"name":"second","lists":["list2"],"sizes":[5]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("over-capacity POST: no Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("over-capacity Retry-After = %q, want a positive whole-second count", ra)
	}
	pollCampaign(t, s, first.ID)
	if got := decode[MetricsSnapshot](t, do(t, s, "GET", "/metrics", "")).Admission["campaign"].Running; got != 0 {
		t.Fatalf("admission.campaign.running after the campaign ended = %d, want 0", got)
	}
}

func TestCampaignDiskSnapshotSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, DataDir: dir})
	w := do(t, s, "POST", "/v1/campaigns", `{"name":"durable","lists":["list2"]}`)
	c := decode[Campaign](t, w)
	done := pollCampaign(t, s, c.ID)
	if done.Status != CampaignDone {
		t.Fatalf("status = %q", done.Status)
	}

	// A fresh server over the same data dir serves the campaign from disk.
	s2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	w = do(t, s2, "GET", "/v1/campaigns/"+c.ID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("disk snapshot: status %d: %s", w.Code, w.Body.String())
	}
	snap := decode[Campaign](t, w)
	if snap.Status != CampaignDone || snap.Units.Done != 1 || snap.SpecHash != c.SpecHash {
		t.Fatalf("disk snapshot = %+v", snap)
	}
	if w = do(t, s2, "GET", "/v1/campaigns/"+c.ID+"/results", ""); w.Code != http.StatusOK {
		t.Fatalf("disk results: status %d", w.Code)
	}
}

func TestCampaignCancelIsResumable(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, CampaignWorkers: 1, DataDir: dir})
	// Several list1 units: slow enough to cancel mid-run.
	spec := `{"name":"cancelme","lists":["list1"],"orders":["free","up","down"],"shard_size":1}`
	w := do(t, s, "POST", "/v1/campaigns", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", w.Code, w.Body.String())
	}
	c := decode[Campaign](t, w)
	if w = do(t, s, "DELETE", "/v1/campaigns/"+c.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("DELETE: status %d: %s", w.Code, w.Body.String())
	}
	done := pollCampaign(t, s, c.ID)
	if done.Status != CampaignInterrupted && done.Status != CampaignDone {
		t.Fatalf("post-cancel status = %q (%s)", done.Status, done.Error)
	}
	if done.Status == CampaignDone {
		t.Skip("campaign finished before the cancel landed")
	}

	// Re-POSTing the same spec resumes the interrupted campaign.
	w = do(t, s, "POST", "/v1/campaigns", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("resume POST: status %d: %s", w.Code, w.Body.String())
	}
	resumed := pollCampaign(t, s, c.ID)
	if resumed.Status != CampaignDone {
		t.Fatalf("resumed status = %q (%s)", resumed.Status, resumed.Error)
	}
	if resumed.Shards.Committed != 3 {
		t.Fatalf("resumed shards = %+v", resumed.Shards)
	}
}
