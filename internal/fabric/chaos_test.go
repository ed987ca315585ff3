package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"

	"marchgen/internal/campaign"
	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// faultOrder is the report sequence the coordinator fault matrix
// interrupts: every shard of testSpec once, with shard 0 reported a second
// time (a retried complete) after shard 1.
var faultOrder = []int{0, 1, 0, 2, 3, 4, 5}

// driveCoordinator runs Submit and the faultOrder completes of testSpec on
// a coordinator over root whose store I/O goes through fsys, and returns
// the shards whose Complete returned nil. With fsys nil (the real
// filesystem) every call must succeed and the campaign must end complete;
// under an injector the calls' errors are the faults' expected answers.
func driveCoordinator(t *testing.T, root string, fsys iofault.FS, order []int) (acked []int) {
	t.Helper()
	spec := testSpec()
	plan := campaign.Plan(spec)
	c := NewCoordinator(Config{Root: root, Version: "test-v1", Schema: campaign.SpecSchema, FS: fsys})
	defer c.Shutdown()
	w := mustJoin(t, c)
	if _, err := c.Submit(spec); err != nil {
		if fsys == nil {
			t.Fatalf("Submit: %v", err)
		}
		return nil
	}
	for _, shard := range order {
		_, err := c.Complete(CompleteRequest{Worker: w, Campaign: spec.ID(), Shard: shard, Records: fakeRecs(plan[shard])})
		switch {
		case err == nil:
			acked = append(acked, shard)
		case fsys == nil:
			t.Fatalf("Complete(%d): %v", shard, err)
		}
	}
	if fsys == nil {
		if st, ok := c.SessionStatusByID(spec.ID()); !ok || !st.Done {
			t.Fatalf("campaign not complete after every shard was reported: %+v", st)
		}
	}
	return acked
}

// TestCoordinatorFaultMatrix is the coordinator's counterpart of
// campaign's TestFaultMatrixFailsCleanly: every non-crash fault at every
// mutating I/O op of a Submit and seven completes must leave a store that
// reads back, holds no record twice and commits a prefix of the clean
// run's bytes; a coordinator restarted over the same root on the real
// filesystem must stage every shard whose Complete succeeded, so no
// acknowledged report is executed twice, and must finish the campaign
// byte-identical to the clean run.
func TestCoordinatorFaultMatrix(t *testing.T) {
	spec := testSpec()
	refRoot := t.TempDir()
	counter := iofault.NewInjector(nil, iofault.Plan{})
	driveCoordinator(t, refRoot, counter, faultOrder)
	ref, err := os.ReadFile(store.DataPath(spec.Dir(refRoot)))
	if err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 40 {
		t.Fatalf("clean run performed only %d mutating ops; the matrix would be degenerate", total)
	}

	fired := 0
	kinds := []iofault.Kind{iofault.FailOp, iofault.ENOSPC, iofault.ShortWrite, iofault.SyncErr}
	for _, kind := range kinds {
		for n := 0; n < total; n++ {
			root := t.TempDir()
			inj := iofault.NewInjector(nil, iofault.Plan{Op: n, Kind: kind})
			acked := driveCoordinator(t, root, inj, faultOrder)
			if !inj.Fired() {
				continue // a sync fault past the last sync
			}
			fired++
			name := fmt.Sprintf("%s-at-%02d", kind, n)
			dir := spec.Dir(root)
			if _, err := store.ReadCheckpoint(dir); err == nil {
				cp, recs, err := store.Read(dir)
				if err != nil {
					t.Fatalf("%s: store unreadable: %v", name, err)
				}
				seen := make(map[int]bool)
				for _, r := range recs {
					if seen[r.Seq] {
						t.Fatalf("%s: seq %d committed twice (%d records, %d units)", name, r.Seq, len(recs), spec.Units())
					}
					seen[r.Seq] = true
				}
				data, err := os.ReadFile(store.DataPath(dir))
				if err != nil && !errors.Is(err, fs.ErrNotExist) {
					t.Fatal(err)
				}
				if int64(len(data)) < cp.Bytes || !bytes.HasPrefix(ref, data[:cp.Bytes]) {
					t.Fatalf("%s: committed bytes are not a prefix of the clean run's", name)
				}
			} else if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s: checkpoint: %v", name, err)
			}

			restarted := NewCoordinator(Config{Root: root, Version: "test-v1", Schema: campaign.SpecSchema})
			if _, err := restarted.Submit(spec); err != nil {
				t.Fatalf("%s: restarted Submit: %v", name, err)
			}
			for _, shard := range acked {
				if !restarted.sessions[spec.ID()].st.Staged(shard) {
					t.Fatalf("%s: shard %d was acknowledged but a restarted coordinator does not stage it (acknowledged %v)", name, shard, acked)
				}
			}
			restarted.Shutdown()

			driveCoordinator(t, root, nil, []int{0, 1, 2, 3, 4, 5})
			got, err := os.ReadFile(store.DataPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s: restarted coordinator's result set differs from the clean run (%d vs %d bytes)", name, len(got), len(ref))
			}
		}
	}
	t.Logf("coordinator fault matrix: %d ops, %d fired plans", total, fired)
}
