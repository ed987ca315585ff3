package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// chaosSpec is the sweep the fault matrix interrupts: three units in
// three single-unit shards, so the op stream crosses several commit
// protocol rounds (data appends, data fsyncs, index and checkpoint
// temp-write/fsync/rename/dir-sync) plus the spec-file and initial
// checkpoint writes.
func chaosSpec() Spec {
	return Spec{
		Name:      "chaos",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		ShardSize: 1,
	}
}

// chaosReference runs the campaign once uninterrupted through a counting
// injector, returning the committed result bytes and the total number of
// mutating I/O operations — the exclusive bound of the fault sweep.
func chaosReference(t *testing.T) (ref []byte, totalOps int) {
	t.Helper()
	spec := chaosSpec()
	root := t.TempDir()
	counter := iofault.NewInjector(nil, iofault.Plan{})
	if _, err := Run(context.Background(), spec, root, RunOptions{Workers: 2, FS: counter}); err != nil {
		t.Fatal(err)
	}
	ref = resultsBytes(t, spec, root)
	if len(ref) == 0 {
		t.Fatal("reference run produced no results")
	}
	// Sanity: the op stream must cover the whole commit protocol — a
	// shrunken stream would silently shrink the matrix.
	if counter.Ops() < 20 {
		t.Fatalf("reference run performed only %d mutating ops; the matrix would be degenerate", counter.Ops())
	}
	return ref, counter.Ops()
}

// TestCrashMatrixResumeByteIdentical generalizes TestKillResumeByteIdentical
// from one hand-placed kill point to every reachable one: for every
// mutating I/O operation index N in the campaign's deterministic write
// path, crash at N (stop writing, keep bytes — the SIGKILL state), then
// resume on a clean filesystem and require the final committed result
// set to be byte-identical to the uninterrupted run.
func TestCrashMatrixResumeByteIdentical(t *testing.T) {
	ref, total := chaosReference(t)
	spec := chaosSpec()
	t.Logf("crash matrix: %d mutating I/O ops", total)
	for n := 0; n < total; n++ {
		n := n
		t.Run(fmt.Sprintf("crash-at-%02d", n), func(t *testing.T) {
			root := t.TempDir()
			inj := iofault.NewInjector(nil, iofault.Plan{Op: n, Kind: iofault.Crash})
			_, err := Run(context.Background(), spec, root, RunOptions{Workers: 2, FS: inj})
			if err == nil {
				t.Fatalf("crash at op %d was swallowed: run reported success", n)
			}
			if !inj.Fired() {
				t.Fatalf("crash plan at op %d never fired", n)
			}
			// Resume on a clean filesystem: whatever the crash left on disk
			// (missing spec file, torn temp files, half-written data lines),
			// the committed result set must converge to the reference bytes.
			sum, err := Run(context.Background(), spec, root, RunOptions{Workers: 2, Resume: true})
			if err != nil {
				t.Fatalf("resume after crash at op %d: %v", n, err)
			}
			if sum.Units != spec.Units() {
				t.Fatalf("resume after crash at op %d: summary %+v", n, sum)
			}
			if got := resultsBytes(t, spec, root); string(got) != string(ref) {
				t.Fatalf("crash at op %d: resumed result set differs from uninterrupted run (%d vs %d bytes)", n, len(got), len(ref))
			}
		})
	}
}

// TestFaultMatrixFailsCleanly sweeps the non-crash faults — generic I/O
// error, ENOSPC, short write, fsync failure — over every operation index
// and requires each to surface as a clean returned error (never a panic,
// never silent loss): the faulted run fails, and a clean resume still
// converges to the reference bytes.
func TestFaultMatrixFailsCleanly(t *testing.T) {
	ref, total := chaosReference(t)
	spec := chaosSpec()
	kinds := []iofault.Kind{iofault.FailOp, iofault.ENOSPC, iofault.ShortWrite, iofault.SyncErr}
	for _, kind := range kinds {
		for n := 0; n < total; n++ {
			kind, n := kind, n
			t.Run(fmt.Sprintf("%s-at-%02d", kind, n), func(t *testing.T) {
				root := t.TempDir()
				inj := iofault.NewInjector(nil, iofault.Plan{Op: n, Kind: kind})
				_, err := Run(context.Background(), spec, root, RunOptions{Workers: 2, FS: inj})
				// SyncErr at a late index may land past the last sync and
				// never fire; every fired fault must fail the run.
				if inj.Fired() && err == nil {
					t.Fatalf("%v at op %d was swallowed: run reported success", kind, n)
				}
				if err != nil && !inj.Fired() {
					t.Fatalf("run failed (%v) but no fault fired", err)
				}
				sum, err := Run(context.Background(), spec, root, RunOptions{Workers: 2, Resume: true})
				if err != nil {
					t.Fatalf("resume after %v at op %d: %v", kind, n, err)
				}
				if sum.Units != spec.Units() {
					t.Fatalf("resume after %v at op %d: summary %+v", kind, n, sum)
				}
				if got := resultsBytes(t, spec, root); string(got) != string(ref) {
					t.Fatalf("%v at op %d: result set differs from uninterrupted run (%d vs %d bytes)", kind, n, len(got), len(ref))
				}
			})
		}
	}
}

// TestENOSPCLeavesStoreAtCheckpoint pins the cleanliness half of the
// acceptance criterion directly at store level: an ENOSPC mid-commit
// returns an error, the checkpoint does not advance, and reopening the
// store recovers exactly the previously committed prefix.
func TestENOSPCLeavesStoreAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	s.Stage(0, []store.Record{{ID: "a", Seq: 0, Body: []byte(`{"n":0}`)}})
	if _, err := s.CommitNext(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cpBefore, _, err := store.Read(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Reopen through an injector that runs out of disk on the second
	// mutating op of the next commit (its data append, op 0, lands; the
	// data fsync hits ENOSPC).
	inj := iofault.NewInjector(nil, iofault.Plan{Op: 1, Kind: iofault.ENOSPC})
	s2, err := store.OpenFS(dir, "h1", inj)
	if err != nil {
		t.Fatal(err)
	}
	s2.Stage(1, []store.Record{{ID: "b", Seq: 1, Body: []byte(`{"n":1}`)}})
	if _, err := s2.CommitNext(); err == nil {
		t.Fatal("commit with injected ENOSPC succeeded")
	}
	s2.Close()

	cpAfter, recs, err := store.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cpAfter != cpBefore {
		t.Fatalf("failed commit moved the checkpoint: %+v -> %+v", cpBefore, cpAfter)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recovered records = %+v, want only the committed prefix", recs)
	}
}

// TestRunContainsPanickingCallback proves the campaign worker pool
// survives a panic in unit work: a panicking OnEvent callback (the only
// request-supplied code on the worker path) must fail the run with the
// captured stack instead of killing the process, and the store must stay
// resumable.
func TestRunContainsPanickingCallback(t *testing.T) {
	spec := chaosSpec()
	root := t.TempDir()
	_, err := Run(context.Background(), spec, root, RunOptions{
		Workers: 2,
		OnEvent: func(ev Event) {
			if ev.Kind == EventUnitDone {
				panic("callback exploded")
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "callback exploded") {
		t.Fatalf("err = %v, want a contained panic with its message", err)
	}
	// The wreckage resumes to a complete campaign.
	sum, err := Run(context.Background(), spec, root, RunOptions{Resume: true})
	if err != nil {
		t.Fatalf("resume after contained panic: %v", err)
	}
	if sum.Units != spec.Units() {
		t.Fatalf("resume summary = %+v", sum)
	}
	if _, err := os.Stat(store.DataPath(spec.Dir(root))); err != nil {
		t.Fatal(err)
	}
}

// TestCrashErrorIsDiagnosable: the error a crashed run returns names the
// injected crash, so operators can tell infrastructure faults from
// generation failures.
func TestCrashErrorIsDiagnosable(t *testing.T) {
	root := t.TempDir()
	inj := iofault.NewInjector(nil, iofault.Plan{Op: 0, Kind: iofault.Crash})
	_, err := Run(context.Background(), chaosSpec(), root, RunOptions{FS: inj})
	if !errors.Is(err, iofault.ErrCrashed) {
		t.Fatalf("err = %v, want to unwrap to iofault.ErrCrashed", err)
	}
}
