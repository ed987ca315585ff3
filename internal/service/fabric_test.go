package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"marchgen/internal/campaign"
	"marchgen/internal/fabric"
	"marchgen/internal/store"
)

// fabricTestSpec keeps the distributed service tests fast: six real units
// in six single-unit shards.
const fabricTestSpec = `{"spec":{"name":"svc-fabric","lists":["list2"],"orders":["free","up","down"],"sizes":[3,4],"shard_size":1}}`

func TestFabricRoutesAbsentWithoutCoordinatorMode(t *testing.T) {
	s := newTestServer(t, Config{DataDir: t.TempDir()})
	if w := do(t, s, "POST", "/v1/fabric/campaigns", fabricTestSpec); w.Code != http.StatusNotFound {
		t.Fatalf("fabric submit on non-coordinator = %d, want 404", w.Code)
	}
	if body := do(t, s, "GET", "/metrics", "").Body.String(); strings.Contains(body, "fabric_") {
		t.Fatalf("non-coordinator /metrics advertises fabric counters: %s", body)
	}
}

// TestFabricThroughService runs a whole distributed campaign through the
// marchd handler stack — submit over HTTP, a slow and a fast worker
// against the real listener — and requires the steal path to engage and
// show up in /metrics as a nonzero fabric_steals_total.
func TestFabricThroughService(t *testing.T) {
	dataDir := t.TempDir()
	s := newTestServer(t, Config{
		DataDir:           dataDir,
		Coordinator:       true,
		FabricLeaseShards: 100, // one worker can hold the whole plan: forces stealing
		FabricLeaseTTL:    5 * time.Second,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The submit body carries only the spec: the strict decoder refuses
	// any other field, a simulator engine selection included.
	withEngine := strings.TrimSuffix(fabricTestSpec, "}") + `,"lanes":"off"}`
	if w := do(t, s, "POST", "/v1/fabric/campaigns", withEngine); w.Code != http.StatusBadRequest {
		t.Fatalf("fabric submit with an unknown field = %d, want 400: %s", w.Code, w.Body)
	}
	w := do(t, s, "POST", "/v1/fabric/campaigns", fabricTestSpec)
	if w.Code != http.StatusOK {
		t.Fatalf("fabric submit = %d: %s", w.Code, w.Body)
	}
	session := decode[fabric.SessionStatus](t, w)
	if session.Shards != 6 || session.Done {
		t.Fatalf("submitted session = %+v", session)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	slow := &fabric.Worker{
		Coordinator: srv.URL, Name: "slow", Poll: 5 * time.Millisecond, ExitOnDrain: true,
		RunShard: func(ctx context.Context, sh campaign.Shard, memo *campaign.Memo) ([]store.Record, error) {
			timer := time.NewTimer(150 * time.Millisecond)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-timer.C:
			}
			return campaign.ExecuteShard(ctx, sh, memo)
		},
	}
	fast := &fabric.Worker{Coordinator: srv.URL, Name: "fast", Poll: 5 * time.Millisecond, ExitOnDrain: true}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := slow.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("slow worker: %v", err)
		}
	}()
	// The fast worker joins only once the slow one holds a lease, so its
	// first request has nothing pending and must steal.
	for {
		st := decode[fabric.SessionStatus](t, do(t, s, "GET", "/v1/fabric/campaigns/"+session.ID, ""))
		if len(st.Leases) > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for the slow worker's lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fast.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("fast worker: %v", err)
		}
	}()
	wg.Wait()

	final := decode[fabric.SessionStatus](t, do(t, s, "GET", "/v1/fabric/campaigns/"+session.ID, ""))
	if !final.Done || final.Committed != final.Shards {
		t.Fatalf("campaign did not finish: %+v", final)
	}
	if len(final.ShardsByWorker) < 2 {
		t.Fatalf("shards_by_worker = %v, want both workers contributing", final.ShardsByWorker)
	}

	metrics := do(t, s, "GET", "/metrics", "")
	snap := decode[MetricsSnapshot](t, metrics)
	if snap.Fabric == nil {
		t.Fatalf("/metrics has no fabric section: %s", metrics.Body)
	}
	if snap.Fabric.Steals == 0 {
		t.Fatalf("fabric_steals_total = 0 after straggler run: %+v", *snap.Fabric)
	}
	if snap.Fabric.Leases == 0 || snap.Fabric.Completes == 0 || snap.Fabric.Joins != 2 {
		t.Fatalf("fabric counters incomplete: %+v", *snap.Fabric)
	}
	if !strings.Contains(metrics.Body.String(), `"fabric_steals_total"`) {
		t.Fatalf("/metrics body does not spell fabric_steals_total: %s", metrics.Body)
	}

	// The fabric run landed in the service's own campaign store root, so
	// the ordinary completeness probe sees a finished campaign.
	cp, err := store.ReadCheckpoint(session.Dir)
	if err != nil || cp.Shards != session.Shards {
		t.Fatalf("store checkpoint = %+v, %v", cp, err)
	}
}

// TestFabricJoinSkewOverHTTP pins the wire shape of the version-skew
// guard: HTTP 409 with code "skew" and both sides' versions in the error.
func TestFabricJoinSkewOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{DataDir: t.TempDir(), Coordinator: true})
	w := do(t, s, "POST", "/v1/fabric/join", `{"name":"old","version":"v0.0.0-ancient","schema":"marchcamp/spec/v0"}`)
	if w.Code != http.StatusConflict {
		t.Fatalf("skewed join = %d, want 409: %s", w.Code, w.Body)
	}
	body := decode[fabric.ErrorBody](t, w)
	if body.Code != fabric.CodeSkew || !strings.Contains(body.Error, "v0.0.0-ancient") {
		t.Fatalf("skew error body = %+v", body)
	}
}
