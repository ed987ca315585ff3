package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// Campaign lifecycle states of the marchd API. Unlike jobs, campaigns are
// durable: an "interrupted" campaign (server died or was shut down mid-run)
// is resumable by POSTing the same spec again.
const (
	CampaignRunning     = "running"
	CampaignDone        = "done"
	CampaignFailed      = "failed"
	CampaignInterrupted = "interrupted"
)

// ShardProgress is the per-shard view of a campaign: total/committed
// counters plus one state per shard ("pending", "running", "committed").
type ShardProgress struct {
	Total     int      `json:"total"`
	Committed int      `json:"committed"`
	States    []string `json:"states"`
}

// UnitProgress counts unit completions.
type UnitProgress struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Errors int `json:"errors"`
}

// Campaign is the API snapshot of a campaign.
type Campaign struct {
	ID       string        `json:"id"`
	Name     string        `json:"name,omitempty"`
	SpecHash string        `json:"spec_hash"`
	Status   string        `json:"status"`
	Created  time.Time     `json:"created,omitempty"`
	Finished time.Time     `json:"finished,omitempty"`
	Shards   ShardProgress `json:"shards"`
	Units    UnitProgress  `json:"units"`
	Error    string        `json:"error,omitempty"`
	Results  string        `json:"results,omitempty"`
}

// campaignRun is the in-memory record of a campaign started by this server
// process.
type campaignRun struct {
	id      string
	spec    campaign.Spec
	created time.Time
	cancel  context.CancelFunc
	done    chan struct{}

	mu        sync.Mutex
	status    string
	finished  time.Time
	shards    []string // per-shard state
	unitsDone int
	unitErrs  int
	committed int
	errMsg    string
}

func (r *campaignRun) snapshot() Campaign {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := Campaign{
		ID:       r.id,
		Name:     r.spec.Name,
		SpecHash: r.spec.Hash(),
		Status:   r.status,
		Created:  r.created,
		Finished: r.finished,
		Shards: ShardProgress{
			Total:     len(r.shards),
			Committed: r.committed,
			States:    append([]string(nil), r.shards...),
		},
		Units: UnitProgress{
			Total:  r.spec.Units(),
			Done:   r.unitsDone,
			Errors: r.unitErrs,
		},
		Error:   r.errMsg,
		Results: "/v1/campaigns/" + r.id + "/results",
	}
	return c
}

// onEvent folds an engine progress event into the run's counters. Events
// arrive serialized (the engine locks around the callback).
func (r *campaignRun) onEvent(ev campaign.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Kind {
	case campaign.EventUnitDone:
		r.unitsDone++
		if ev.Err != "" {
			r.unitErrs++
		}
		if ev.Shard < len(r.shards) && r.shards[ev.Shard] == "pending" {
			r.shards[ev.Shard] = "running"
		}
	case campaign.EventShardCommitted:
		r.committed = ev.Committed
		if ev.Shard < len(r.shards) {
			r.shards[ev.Shard] = "committed"
		}
	}
}

// campaignManager owns the campaign runs of one server process over one
// durable store root. Each running campaign holds a campaign-class
// admission slot, which bounds how many run at once.
type campaignManager struct {
	root    string
	workers int
	admit   *admission
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	runs     map[string]*campaignRun
	draining bool

	// onTerminal receives the final status for metrics.
	onTerminal func(status string)
}

func newCampaignManager(root string, workers int, admit *admission) *campaignManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &campaignManager{
		root:    root,
		workers: workers,
		admit:   admit,
		baseCtx: ctx,
		cancel:  cancel,
		runs:    make(map[string]*campaignRun),
	}
}

// Start launches (or, for an already-running id, returns) the campaign for
// the given spec. The engine runs with Resume, so re-POSTing the spec of an
// interrupted campaign continues it from its checkpoint. A new run takes a
// campaign admission slot, or returns the *shedError that refused it.
func (m *campaignManager) Start(spec campaign.Spec) (*campaignRun, bool, error) {
	c := spec.Canonical()
	id := c.ID()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	if r, ok := m.runs[id]; ok {
		r.mu.Lock()
		running := r.status == CampaignRunning
		r.mu.Unlock()
		if running {
			return r, false, nil
		}
		// Terminal: fall through and start a fresh run (resume semantics
		// make this a no-op for completed campaigns).
	}
	if shed := m.admit.acquire(classCampaign); shed != nil {
		return nil, false, shed
	}

	ctx, cancel := context.WithCancel(m.baseCtx)
	r := &campaignRun{
		id:      id,
		spec:    c,
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  CampaignRunning,
		shards:  make([]string, len(campaign.Plan(c))),
	}
	for i := range r.shards {
		r.shards[i] = "pending"
	}
	m.runs[id] = r
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		sum, err := campaign.Run(ctx, c, m.root, campaign.RunOptions{
			Workers: m.workers,
			Resume:  true,
			OnEvent: r.onEvent,
		})
		// Free the slot before the status turns terminal: a client that
		// sees the campaign end sees its slot free.
		m.admit.release(classCampaign)
		r.mu.Lock()
		r.finished = time.Now()
		switch {
		case err == nil:
			r.status = CampaignDone
			r.unitErrs = sum.UnitErrors
		case errors.Is(err, context.Canceled):
			r.status = CampaignInterrupted
			r.errMsg = "interrupted; POST the same spec to resume"
		default:
			r.status = CampaignFailed
			r.errMsg = err.Error()
		}
		status := r.status
		r.mu.Unlock()
		close(r.done)
		if m.onTerminal != nil {
			m.onTerminal(status)
		}
	}()
	return r, true, nil
}

// Get returns the in-memory run for id.
func (m *campaignManager) Get(id string) (*campaignRun, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Cancel stops a running campaign at its next shard boundary.
func (m *campaignManager) Cancel(id string) (*campaignRun, bool) {
	r, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	r.cancel()
	return r, true
}

// List snapshots every known run.
func (m *campaignManager) List() []Campaign {
	m.mu.Lock()
	runs := make([]*campaignRun, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	out := make([]Campaign, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.snapshot())
	}
	return out
}

// Shutdown lets running campaigns drain until ctx expires, then cancels
// them (they re-checkpoint at shard granularity, so nothing is lost beyond
// the in-flight shards).
func (m *campaignManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	return drain(ctx, &m.wg, m.cancel, "service: campaign drain window expired; in-flight campaigns interrupted")
}

// diskSnapshot reconstructs a campaign snapshot from its store directory —
// the fallback for campaigns started by a previous server process.
func (m *campaignManager) diskSnapshot(id string) (Campaign, bool) {
	dir := filepath.Join(m.root, id)
	sf, err := campaign.LoadSpecFile(dir)
	if err != nil {
		return Campaign{}, false
	}
	cp, recs, err := store.Read(dir)
	if err != nil {
		return Campaign{}, false
	}
	shards := campaign.Plan(sf.Spec)
	states := make([]string, len(shards))
	for i := range states {
		if i < cp.Shards {
			states[i] = "committed"
		} else {
			states[i] = "pending"
		}
	}
	status := CampaignInterrupted
	if cp.Shards >= len(shards) {
		status = CampaignDone
	}
	return Campaign{
		ID:       id,
		Name:     sf.Spec.Name,
		SpecHash: sf.Hash,
		Status:   status,
		Shards:   ShardProgress{Total: len(shards), Committed: cp.Shards, States: states},
		Units:    UnitProgress{Total: sf.Spec.Units(), Done: cp.Records, Errors: campaign.UnitErrors(recs)},
		Results:  "/v1/campaigns/" + id + "/results",
	}, true
}

// handleCampaignSubmit is POST /v1/campaigns: validate the spec, then start
// — or resume, campaigns being content-addressed — its campaign. Answers
// 202 with the campaign snapshot (200 if it was already running).
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if err := decodeBody(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad campaign spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, created, err := s.campaigns.Start(spec)
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		writeShed(w, shed)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusOK
	if created {
		s.metrics.campaignSubmitted()
		status = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/campaigns/"+run.id)
	writeJSON(w, status, run.snapshot())
}

// handleCampaignList is GET /v1/campaigns: the campaigns of this server
// process.
func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Campaigns []Campaign `json:"campaigns"`
	}{s.campaigns.List()})
}

// handleCampaignGet is GET /v1/campaigns/{id}: the live snapshot with
// per-shard progress, falling back to the durable store for campaigns of
// previous server runs.
func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if run, ok := s.campaigns.Get(id); ok {
		writeJSON(w, http.StatusOK, run.snapshot())
		return
	}
	if snap, ok := s.campaigns.diskSnapshot(id); ok {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeError(w, http.StatusNotFound, "unknown campaign %q", id)
}

// handleCampaignCancel is DELETE /v1/campaigns/{id}: interrupt at the next
// shard boundary; the checkpoint survives and a re-POST resumes.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.campaigns.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

// handleCampaignResults is GET /v1/campaigns/{id}/results: the committed
// prefix of the campaign's append-only result set, streamed as JSONL. The
// bytes are exactly the store's — the same result set `marchcamp report`
// reads.
func (s *Server) handleCampaignResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dir := filepath.Join(s.campaigns.root, id)
	cp, _, err := store.Read(dir)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	f, err := os.Open(store.DataPath(dir))
	if err != nil {
		writeError(w, http.StatusNotFound, "campaign %q has no results yet", id)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", fmt.Sprint(cp.Bytes))
	_, _ = io.CopyN(w, f, cp.Bytes)
}
