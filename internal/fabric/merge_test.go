package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// testSpec is a six-shard, one-unit-per-shard spec: small enough to
// synthesize records for, sharded finely enough to exercise ordering.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "fabric-merge",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		Sizes:     []int{3, 4},
		ShardSize: 1,
	}.Canonical()
}

// fakeRecs builds records that satisfy ValidateShard without running any
// unit work: commit logic is independent of what the bodies say.
func fakeRecs(sh campaign.Shard) []store.Record {
	recs := make([]store.Record, 0, len(sh.Units))
	for _, u := range sh.Units {
		recs = append(recs, store.Record{
			ID: u.ID(), Shard: sh.ID, Seq: u.Seq,
			Body: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, u.Seq)),
		})
	}
	return recs
}

// completeAll reports shards in the given order on behalf of worker,
// failing the test on any error.
func completeAll(t *testing.T, c *Coordinator, worker string, shards ...int) {
	t.Helper()
	spec := testSpec()
	plan := campaign.Plan(spec)
	for _, shard := range shards {
		if _, err := c.Complete(CompleteRequest{Worker: worker, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard])}); err != nil {
			t.Fatalf("Complete(%d): %v", shard, err)
		}
	}
}

func TestCompleteCommitsInPlanOrder(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w1, w2 := join(t, c), join(t, c)
	committed := func() int {
		st, _ := c.SessionStatusByID(spec.ID())
		return st.Committed
	}

	// Reports out of order: nothing commits until the gap fills.
	completeAll(t, c, w1, 2, 1, 4)
	if got := committed(); got != 0 {
		t.Fatalf("committed %d shards before shard 0 arrived, want 0", got)
	}
	completeAll(t, c, w2, 0)
	if got := committed(); got != 3 {
		t.Fatalf("committed = %d after shard 0, want 3 (0..2 contiguous)", got)
	}
	completeAll(t, c, w1, 3, 5)
	st, _ := c.SessionStatusByID(spec.ID())
	if !st.Done || st.Committed != len(plan) {
		t.Fatalf("Done=%v Committed=%d, want complete plan of %d", st.Done, st.Committed, len(plan))
	}
	// Attribution: each shard goes to its first reporter.
	if by := st.ShardsByWorker; by[w1] != 5 || by[w2] != 1 {
		t.Fatalf("attribution wrong: %v", by)
	}
	_, recs, err := store.Read(spec.Dir(c.cfg.root()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != spec.Units() {
		t.Fatalf("store holds %d records, want %d", len(recs), spec.Units())
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d: store is not in plan order", i, r.Seq)
		}
	}
}

// TestCompleteDuplicatesCreditFirstReporter: a second report of a
// committed or a staged shard answers Duplicate, appends nothing, and
// leaves the shard credited to its first reporter.
func TestCompleteDuplicatesCreditFirstReporter(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w1, w2 := join(t, c), join(t, c)
	completeAll(t, c, w1, 0, 3)
	for _, shard := range []int{0, 3} {
		resp, err := c.Complete(CompleteRequest{Worker: w2, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard])})
		if err != nil || !resp.Duplicate {
			t.Fatalf("duplicate of shard %d = (%+v, %v), want Duplicate", shard, resp, err)
		}
	}
	st, _ := c.SessionStatusByID(spec.ID())
	if by := st.ShardsByWorker; by[w1] != 2 || by[w2] != 0 {
		t.Fatalf("attribution wrong: %v", by)
	}
	if cp, err := store.ReadCheckpoint(spec.Dir(c.cfg.root())); err != nil || cp.Records != 1 {
		t.Fatalf("checkpoint = %+v, %v; want 1 record (duplicates must not append)", cp, err)
	}
	if got := c.Counters().Duplicates; got != 2 {
		t.Fatalf("fabric_duplicate_shards_total = %d, want 2", got)
	}
}

func TestCompleteRejectsMismatchedRecords(t *testing.T) {
	c := newTestCoordinator(t, nil, 0)
	spec := testSpec()
	plan := campaign.Plan(spec)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w := join(t, c)
	completeAll(t, c, w, 0)
	dir := spec.Dir(c.cfg.root())
	before, err := store.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name  string
		shard int
		recs  []store.Record
	}{
		{"wrong count", 1, nil},
		{"wrong unit id", 1, func() []store.Record {
			r := fakeRecs(plan[1])
			r[0].ID = "u-000000000000000000000000"
			return r
		}()},
		{"wrong seq", 1, func() []store.Record {
			r := fakeRecs(plan[1])
			r[0].Seq += 7
			return r
		}()},
		{"wrong shard tag", 1, func() []store.Record {
			r := fakeRecs(plan[1])
			r[0].Shard = 5
			return r
		}()},
		{"invalid body", 1, func() []store.Record {
			r := fakeRecs(plan[1])
			r[0].Body = json.RawMessage(`{"torn`)
			return r
		}()},
		{"shard out of plan", len(plan) + 3, fakeRecs(plan[1])},
	}
	for _, tc := range bad {
		req := CompleteRequest{Worker: w, Campaign: spec.ID(), Shard: tc.shard, Records: tc.recs}
		if _, err := c.Complete(req); !errors.Is(err, ErrBadShard) {
			t.Errorf("%s: err = %v, want ErrBadShard", tc.name, err)
		}
	}
	if cp, err := store.ReadCheckpoint(dir); err != nil || cp != before {
		t.Fatalf("checkpoint moved from %+v to %+v (%v) on rejected reports", before, cp, err)
	}
	if st, _ := c.SessionStatusByID(spec.ID()); st.ShardsByWorker[w] != 1 {
		t.Fatalf("rejected reports were credited: %v", st.ShardsByWorker)
	}
}

func TestGroupShardsNormalizesLooseRecords(t *testing.T) {
	spec := testSpec()
	plan := campaign.Plan(spec)

	var loose []store.Record
	// Shard 1 out of order, with a duplicate seq; shard 0 complete; one
	// record naming a shard outside the plan.
	loose = append(loose, fakeRecs(plan[1])...)
	loose = append(loose, fakeRecs(plan[1])[0])
	loose = append(loose, fakeRecs(plan[0])...)
	stray := fakeRecs(plan[0])[0]
	stray.Shard = 99
	loose = append(loose, stray)

	buckets := GroupShards(plan, loose)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %v", len(buckets), buckets)
	}
	for shard, recs := range buckets {
		if err := ValidateShard(plan[shard], recs); err != nil {
			t.Errorf("bucket %d does not validate: %v", shard, err)
		}
	}
}
