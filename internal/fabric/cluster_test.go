package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// clusterSpec is the cluster tests' workload: six real generate-and-
// certify units in six single-unit shards, so leases split at many
// boundaries and every shard carries real result bodies.
func clusterSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "cluster",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		Sizes:     []int{3, 4},
		ShardSize: 1,
	}
}

// singleNodeBytes runs the spec through the ordinary single-node engine
// and returns its committed results.jsonl — the byte-identity reference.
func singleNodeBytes(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	root := t.TempDir()
	if _, err := campaign.Run(context.Background(), spec, root, campaign.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(store.DataPath(spec.Canonical().Dir(root)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startCluster(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Version == "" {
		cfg.Version = "test-v1"
	}
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Mux())
	t.Cleanup(func() {
		srv.Close()
		c.Shutdown()
	})
	return c, srv
}

func runWorkers(t *testing.T, ctx context.Context, workers []*Worker) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && ctx.Err() == nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestClusterByteIdentical is the tentpole claim: a 3-worker distributed
// run produces a results.jsonl byte-for-byte equal to the single-node
// engine's, in the same store layout.
func TestClusterByteIdentical(t *testing.T) {
	spec := clusterSpec()
	want := singleNodeBytes(t, spec)

	root := t.TempDir()
	coord, srv := startCluster(t, Config{Root: root, LeaseShards: 2, LeaseTTL: 5 * time.Second})
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	for i := 0; i < 3; i++ {
		workers = append(workers, &Worker{
			Coordinator: srv.URL, Version: "test-v1",
			Poll: 5 * time.Millisecond, ExitOnDrain: true,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runWorkers(t, ctx, workers)

	status, ok := coord.SessionStatusByID(spec.Canonical().ID())
	if !ok || !status.Done {
		t.Fatalf("campaign not done: %+v", status)
	}
	got, err := os.ReadFile(store.DataPath(spec.Canonical().Dir(root)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed results.jsonl differs from single-node run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// The distributed store must satisfy the same completeness probe the
	// single-node path does.
	cp, err := store.ReadCheckpoint(spec.Canonical().Dir(root))
	if err != nil || cp.Shards != status.Shards {
		t.Fatalf("checkpoint = %+v, %v; want %d shards", cp, err, status.Shards)
	}
}

// TestClusterKillWorkerByteIdentical is the kill-a-worker chaos test: one
// worker crashes (its context dies mid-lease, heartbeats stop) at every
// possible shard boundary in turn; lease expiry reassigns its range and
// the merged result set must still match the single-node bytes exactly.
func TestClusterKillWorkerByteIdentical(t *testing.T) {
	spec := clusterSpec()
	want := singleNodeBytes(t, spec)

	for kill := 0; kill < 3; kill++ {
		kill := kill
		t.Run(fmt.Sprintf("kill-after-%d-shards", kill), func(t *testing.T) {
			root := t.TempDir()
			coord, srv := startCluster(t, Config{
				Root: root, LeaseShards: 3, LeaseTTL: 150 * time.Millisecond,
			})
			if _, err := coord.Submit(spec); err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			// The victim executes `kill` shards, then "crashes": its
			// context is canceled, so it stops heartbeating and never
			// reports the shard it was working on.
			victimCtx, crash := context.WithCancel(ctx)
			var done int
			var crashed atomic.Bool
			victim := &Worker{
				Coordinator: srv.URL, Version: "test-v1",
				Poll: 5 * time.Millisecond,
				RunShard: func(ctx context.Context, sh campaign.Shard, memo *campaign.Memo) ([]store.Record, error) {
					if done >= kill {
						crash()
						crashed.Store(true)
						return nil, ctx.Err()
					}
					done++
					return campaign.ExecuteShard(ctx, sh, memo)
				},
			}
			go victim.Run(victimCtx)

			// The survivors join only once the victim has crashed while
			// holding its lease. Joining earlier lets them steal the
			// lease's tail, and the victim can then finish its shrunken
			// lease before the crash point, leaving nothing to reassign.
			waitFor(t, ctx, crashed.Load)

			survivors := []*Worker{
				{Coordinator: srv.URL, Version: "test-v1", Poll: 5 * time.Millisecond, ExitOnDrain: true},
				{Coordinator: srv.URL, Version: "test-v1", Poll: 5 * time.Millisecond, ExitOnDrain: true},
			}
			runWorkers(t, ctx, survivors)

			got, err := os.ReadFile(store.DataPath(spec.Canonical().Dir(root)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("results.jsonl differs from single-node run after worker kill")
			}
			if kill < 3 {
				if got := coord.Counters().Reassigns; got == 0 {
					t.Fatalf("fabric_reassigns_total = 0, want the victim's lease reassigned")
				}
			}
		})
	}
}

// TestClusterStealEngages pins the straggler story: a deliberately slow
// worker holds the whole plan; a fast late joiner must steal the tail and
// complete shards the victim would otherwise still own.
func TestClusterStealEngages(t *testing.T) {
	spec := clusterSpec()
	root := t.TempDir()
	coord, srv := startCluster(t, Config{
		Root: root, LeaseShards: 100, LeaseTTL: 5 * time.Second,
	})
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	slow := &Worker{
		Coordinator: srv.URL, Version: "test-v1", Name: "slow",
		Poll: 5 * time.Millisecond, ExitOnDrain: true,
		RunShard: func(ctx context.Context, sh campaign.Shard, memo *campaign.Memo) ([]store.Record, error) {
			if !sleepCtx(ctx, 150*time.Millisecond) {
				return nil, ctx.Err()
			}
			return campaign.ExecuteShard(ctx, sh, memo)
		},
	}
	fast := &Worker{
		Coordinator: srv.URL, Version: "test-v1", Name: "fast",
		Poll: 5 * time.Millisecond, ExitOnDrain: true,
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := slow.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("slow worker: %v", err)
		}
	}()
	// The fast worker joins only after the slow one holds the whole plan,
	// so its first lease request can only be satisfied by stealing.
	waitFor(t, ctx, func() bool {
		st, _ := coord.SessionStatusByID(spec.Canonical().ID())
		return len(st.Leases) > 0
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fast.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("fast worker: %v", err)
		}
	}()
	wg.Wait()

	if got := coord.Counters().Steals; got == 0 {
		t.Fatalf("fabric_steals_total = 0, want the fast worker to steal")
	}
	status, _ := coord.SessionStatusByID(spec.Canonical().ID())
	if !status.Done {
		t.Fatalf("campaign not done: %+v", status)
	}
	if len(status.ShardsByWorker) < 2 {
		t.Fatalf("shards_by_worker = %v, want shards completed by both workers", status.ShardsByWorker)
	}
}

// TestWorkerRunRejectedOnSkew pins the worker-visible shape of the
// version-skew guard: Run fails fast with the coordinator's explanation
// instead of polling forever.
func TestWorkerRunRejectedOnSkew(t *testing.T) {
	_, srv := startCluster(t, Config{Root: t.TempDir()})
	w := &Worker{Coordinator: srv.URL, Version: "something-else", Poll: time.Millisecond}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("Run with mismatched version = %v, want skew rejection", err)
	}
}

func waitFor(t *testing.T, ctx context.Context, cond func() bool) {
	t.Helper()
	for !cond() {
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for cluster condition")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
