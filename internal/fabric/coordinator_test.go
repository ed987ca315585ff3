package fabric

import (
	"errors"
	"testing"
	"time"

	"marchgen/internal/campaign"
)

// fakeClock is the injectable coordinator clock: expiry becomes a pure
// function of explicit Advance calls.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestCoordinator(t *testing.T, clock *fakeClock, leaseShards int) *Coordinator {
	t.Helper()
	cfg := Config{
		Root:        t.TempDir(),
		LeaseShards: leaseShards,
		LeaseTTL:    time.Second,
		Version:     "test-v1",
		Schema:      campaign.SpecSchema,
	}
	if clock != nil {
		cfg.Now = clock.Now
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Shutdown)
	return c
}

func join(t *testing.T, c *Coordinator) string {
	t.Helper()
	resp, err := c.Join(JoinRequest{Version: "test-v1", Schema: campaign.SpecSchema})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Worker
}

func TestJoinRejectsVersionSkew(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	cases := []JoinRequest{
		{Version: "test-v2", Schema: campaign.SpecSchema},   // build skew
		{Version: "test-v1", Schema: "marchcamp/spec/v999"}, // schema skew
		{Version: "", Schema: ""},                           // missing identity
	}
	for _, req := range cases {
		if _, err := c.Join(req); !errors.Is(err, ErrSkew) {
			t.Errorf("Join(%+v) err = %v, want ErrSkew", req, err)
		}
	}
	if got := c.Counters().JoinRejects; got != uint64(len(cases)) {
		t.Fatalf("fabric_join_rejects_total = %d, want %d", got, len(cases))
	}
	if _, err := c.Join(JoinRequest{Version: "test-v1", Schema: campaign.SpecSchema}); err != nil {
		t.Fatalf("matching join rejected: %v", err)
	}
}

func TestLeaseGrantsContiguousRanges(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 4)
	w := join(t, c)

	// No campaigns yet: idle, not drained.
	resp, err := c.Lease(LeaseRequest{Worker: w})
	if err != nil || !resp.Idle || resp.Drained {
		t.Fatalf("lease before submit = %+v, %v; want Idle", resp, err)
	}

	spec := testSpec()
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	plan := campaign.Plan(spec)

	first, err := c.Lease(LeaseRequest{Worker: w})
	if err != nil || first.Lease == nil {
		t.Fatalf("lease = %+v, %v", first, err)
	}
	if first.Lease.From != 0 || first.Lease.To != 4 {
		t.Fatalf("first grant [%d,%d), want [0,4)", first.Lease.From, first.Lease.To)
	}
	second, err := c.Lease(LeaseRequest{Worker: w})
	if err != nil || second.Lease == nil || second.Lease.From != 4 || second.Lease.To != len(plan) {
		t.Fatalf("second grant = %+v, %v; want [4,%d)", second.Lease, err, len(plan))
	}
	if second.Lease.Campaign != spec.ID() || second.Lease.Spec.Hash() != spec.Hash() {
		t.Fatalf("grant carries wrong campaign identity: %+v", second.Lease)
	}
}

func TestLeaseExpiryReassignsShards(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 100)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}

	w1 := join(t, c)
	g, err := c.Lease(LeaseRequest{Worker: w1})
	if err != nil || g.Lease == nil {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	// w1 completes one shard, then goes silent past the TTL.
	if _, err := c.Complete(CompleteRequest{
		Worker: w1, Lease: g.Lease.Lease, Campaign: spec.ID(), Shard: 0, Records: fakeRecs(plan[0]),
	}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)

	// Its heartbeat now fails: the lease is gone.
	if _, err := c.Heartbeat(HeartbeatRequest{Worker: w1, Lease: g.Lease.Lease}); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat after expiry: %v, want ErrUnknownLease", err)
	}
	if got := c.Counters().Reassigns; got != 1 {
		t.Fatalf("fabric_reassigns_total = %d, want 1", got)
	}

	// A peer picks up exactly the unfinished remainder.
	w2 := join(t, c)
	g2, err := c.Lease(LeaseRequest{Worker: w2})
	if err != nil || g2.Lease == nil {
		t.Fatalf("reassigned lease = %+v, %v", g2, err)
	}
	if g2.Lease.From != 1 || g2.Lease.To != len(plan) {
		t.Fatalf("reassigned range [%d,%d), want [1,%d)", g2.Lease.From, g2.Lease.To, len(plan))
	}

	// The dead worker's in-flight complete still lands (dup-or-merge).
	if resp, err := c.Complete(CompleteRequest{
		Worker: w1, Lease: g.Lease.Lease, Campaign: spec.ID(), Shard: 1, Records: fakeRecs(plan[1]),
	}); err != nil || resp.Duplicate {
		t.Fatalf("late complete = %+v, %v; want accepted fresh", resp, err)
	}
}

func TestStealTakesTailHalf(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 100)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}

	w1 := join(t, c)
	g1, err := c.Lease(LeaseRequest{Worker: w1})
	if err != nil || g1.Lease == nil || g1.Lease.To != len(plan) {
		t.Fatalf("want w1 to lease the whole plan, got %+v, %v", g1, err)
	}
	// w1 finishes shards 0 and 1, then stalls.
	for shard := 0; shard < 2; shard++ {
		if _, err := c.Complete(CompleteRequest{
			Worker: w1, Lease: g1.Lease.Lease, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard]),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// An idle peer steals the tail half of the remaining [2,6): [4,6).
	w2 := join(t, c)
	g2, err := c.Lease(LeaseRequest{Worker: w2})
	if err != nil || g2.Lease == nil {
		t.Fatalf("steal lease = %+v, %v", g2, err)
	}
	if g2.Lease.From != 4 || g2.Lease.To != 6 {
		t.Fatalf("stolen range [%d,%d), want [4,6)", g2.Lease.From, g2.Lease.To)
	}
	if got := c.Counters().Steals; got != 1 {
		t.Fatalf("fabric_steals_total = %d, want 1", got)
	}

	// The victim learns its shrunk bounds on the next heartbeat.
	hb, err := c.Heartbeat(HeartbeatRequest{Worker: w1, Lease: g1.Lease.Lease})
	if err != nil {
		t.Fatal(err)
	}
	if hb.To != 4 {
		t.Fatalf("victim bounds after steal = [%d,%d), want To=4", hb.From, hb.To)
	}

	// A second idle request steals half of whatever is larger; with both
	// remainders at two shards, one more steal is possible, then no more
	// (stealing must leave the victim one shard).
	w3 := join(t, c)
	g3, err := c.Lease(LeaseRequest{Worker: w3})
	if err != nil || g3.Lease == nil {
		t.Fatalf("second steal = %+v, %v", g3, err)
	}
	if n := g3.Lease.To - g3.Lease.From; n != 1 {
		t.Fatalf("second steal took %d shards, want 1", n)
	}
}

func TestDrainedOnlyWhenAllCampaignsDone(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock, 100)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w := join(t, c)
	g, err := c.Lease(LeaseRequest{Worker: w})
	if err != nil || g.Lease == nil {
		t.Fatal(err)
	}
	var last CompleteResponse
	for shard := range plan {
		last, err = c.Complete(CompleteRequest{
			Worker: w, Lease: g.Lease.Lease, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !last.Done {
		t.Fatalf("final complete response %+v, want Done", last)
	}
	resp, err := c.Lease(LeaseRequest{Worker: w})
	if err != nil || !resp.Drained {
		t.Fatalf("lease after completion = %+v, %v; want Drained", resp, err)
	}
	status, ok := c.SessionStatusByID(spec.ID())
	if !ok || !status.Done || status.Committed != len(plan) {
		t.Fatalf("session status = %+v, %v", status, ok)
	}
	if status.ShardsByWorker[w] != len(plan) {
		t.Fatalf("shards_by_worker = %v, want all %d by %s", status.ShardsByWorker, len(plan), w)
	}
}

// TestSubmitReplaysSegments is the coordinator-crash story: shard reports
// are fsynced into per-worker segments before merging, so a brand-new
// coordinator over the same root re-stages everything that was ever
// reported — including out-of-order shards beyond the checkpoint.
func TestSubmitReplaysSegments(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	root := t.TempDir()
	cfg := Config{Root: root, LeaseShards: 100, LeaseTTL: time.Second, Version: "test-v1", Now: clock.Now}
	c1 := NewCoordinator(cfg)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w := mustJoin(t, c1)
	g, err := c1.Lease(LeaseRequest{Worker: w})
	if err != nil || g.Lease == nil {
		t.Fatal(err)
	}
	// Commit shard 0; stage shard 3 out of order (stays uncommitted).
	for _, shard := range []int{0, 3} {
		if _, err := c1.Complete(CompleteRequest{
			Worker: w, Lease: g.Lease.Lease, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	c1.Shutdown() // coordinator "crashes" (checkpoint has shard 0 only)

	c2 := NewCoordinator(cfg)
	defer c2.Shutdown()
	status, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.Committed != 1 {
		t.Fatalf("resumed Committed = %d, want 1", status.Committed)
	}
	// The replayed shard 3 must not be leased out again.
	w2 := mustJoin(t, c2)
	g2, err := c2.Lease(LeaseRequest{Worker: w2})
	if err != nil || g2.Lease == nil {
		t.Fatal(err)
	}
	if g2.Lease.From != 1 || g2.Lease.To != 3 {
		t.Fatalf("post-replay grant [%d,%d), want [1,3)", g2.Lease.From, g2.Lease.To)
	}
	// Completing 1 and 2 must finish the campaign: 3 was replayed.
	for _, shard := range []int{1, 2} {
		if _, err := c2.Complete(CompleteRequest{
			Worker: w2, Lease: g2.Lease.Lease, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	g3, err := c2.Lease(LeaseRequest{Worker: w2})
	if err != nil || g3.Lease == nil || g3.Lease.From != 4 {
		t.Fatalf("want remaining tail [4,...) after replayed shard 3, got %+v, %v", g3, err)
	}
}

func mustJoin(t *testing.T, c *Coordinator) string {
	t.Helper()
	resp, err := c.Join(JoinRequest{Version: "test-v1", Schema: campaign.SpecSchema})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Worker
}
