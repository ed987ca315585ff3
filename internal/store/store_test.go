package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"marchgen/internal/iofault"
)

func rec(seq, shard int, id string) Record {
	body, _ := json.Marshal(map[string]int{"seq": seq})
	return Record{ID: id, Shard: shard, Seq: seq, Body: body}
}

// commitAll commits every staged shard the checkpoint reaches and returns
// how many it committed.
func commitAll(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	for {
		ok, err := s.CommitNext()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// stageCommit stages one shard and commits it; the shard must be next.
func stageCommit(t *testing.T, s *Store, shard int, recs ...Record) {
	t.Helper()
	if !s.Stage(shard, recs) {
		t.Fatalf("Stage(%d) refused", shard)
	}
	if n := commitAll(t, s); n != 1 {
		t.Fatalf("staging shard %d committed %d shards, want 1", shard, n)
	}
}

func TestAppendCommitRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	stageCommit(t, s, 0, rec(0, 0, "a"), rec(1, 0, "b"), rec(2, 0, "c"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cp, recs, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Shards != 1 || cp.Records != 3 {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if len(recs) != 3 || recs[2].ID != "c" || recs[2].Seq != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestUncommittedTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	stageCommit(t, s, 0, rec(0, 0, "a"))
	s.Close()
	// A kill mid-commit leaves uncommitted garbage: a whole record plus a
	// torn partial line.
	line, err := json.Marshal(rec(1, 1, "b"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, dataName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(string(line) + "\n" + `{"id":"torn","sh`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recovered records = %+v, want only the committed prefix", recs)
	}
	st, err := os.Stat(filepath.Join(dir, dataName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != s2.Checkpoint().Bytes {
		t.Fatalf("data file %d bytes, checkpoint %d: tail not truncated", st.Size(), s2.Checkpoint().Bytes)
	}
}

func TestResumeAppendsAfterCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "h1")
	stageCommit(t, s, 0, rec(0, 0, "a"))
	s.Close()

	s2, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Staged(0) || s2.Stage(0, []Record{rec(0, 0, "a")}) {
		t.Fatal("reopened store does not count shard 0 as committed")
	}
	stageCommit(t, s2, 1, rec(1, 1, "b"))
	s2.Close()

	cp, recs, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Shards != 2 || len(recs) != 2 || recs[1].ID != "b" {
		t.Fatalf("cp=%+v recs=%+v", cp, recs)
	}
}

func TestSpecMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "h1")
	s.Close()
	if _, err := Open(dir, "h2"); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("Open with wrong hash: err = %v, want ErrSpecMismatch", err)
	}
}

func TestMissingDataBytesIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "h1")
	stageCommit(t, s, 0, rec(0, 0, "a"))
	s.Close()
	// Simulate data loss under the checkpoint.
	if err := os.Truncate(filepath.Join(dir, dataName), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "h1"); err == nil {
		t.Fatal("Open accepted a data file shorter than the checkpoint")
	}
}

// TestCommitNextInPlanOrder: shards staged in any order commit only in plan
// order, each commit advancing the checkpoint by one shard.
func TestCommitNextInPlanOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stage := func(shards ...int) {
		t.Helper()
		for _, shard := range shards {
			if !s.Stage(shard, []Record{rec(shard, shard, fmt.Sprintf("u-%d", shard))}) {
				t.Fatalf("Stage(%d) refused a fresh shard", shard)
			}
		}
	}

	// Nothing commits until the gap at shard 0 fills.
	stage(2, 1, 4)
	if n := commitAll(t, s); n != 0 || s.Checkpoint().Shards != 0 {
		t.Fatalf("committed %d shards before shard 0 was staged", s.Checkpoint().Shards)
	}
	stage(0)
	if n := commitAll(t, s); n != 3 || s.Checkpoint().Shards != 3 {
		t.Fatalf("committed %d (checkpoint %d) after shard 0, want 3 (0..2 contiguous)", n, s.Checkpoint().Shards)
	}
	stage(3, 5)
	if n := commitAll(t, s); n != 3 {
		t.Fatalf("committed %d after shards 3 and 5, want 3 (3..5)", n)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("store holds %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d: store is not in plan order", i, r.Seq)
		}
	}
}

// TestStageDuplicatesAreNoOps: a second copy of a committed or a staged
// shard is refused and appends nothing.
func TestStageDuplicatesAreNoOps(t *testing.T) {
	s, err := Open(t.TempDir(), "h1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stageCommit(t, s, 0, rec(0, 0, "a"))
	if s.Stage(0, []Record{rec(0, 0, "a")}) {
		t.Fatal("Stage accepted a duplicate of a committed shard")
	}
	if !s.Stage(3, []Record{rec(3, 3, "d")}) {
		t.Fatal("Stage refused a fresh shard")
	}
	if s.Stage(3, []Record{rec(3, 3, "d")}) {
		t.Fatal("Stage accepted a duplicate of a staged shard")
	}
	if !s.Staged(0) || !s.Staged(3) || s.Staged(1) {
		t.Fatalf("Staged(0,1,3) = %v,%v,%v, want true,false,true", s.Staged(0), s.Staged(1), s.Staged(3))
	}
	if n := commitAll(t, s); n != 0 {
		t.Fatalf("committed %d shards past a gap", n)
	}
	if cp := s.Checkpoint(); cp.Records != 1 {
		t.Fatalf("%d records committed, want 1 (duplicates must not append)", cp.Records)
	}
}

// TestFailedWriteStopsCommits: once a commit fails, every later commit
// returns that error without touching the disk, and reopening recovers the
// committed prefix and takes writes again.
func TestFailedWriteStopsCommits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	stageCommit(t, s, 0, rec(0, 0, "a"))
	s.Close()
	before, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the next commit's append: half the line reaches the disk.
	inj := iofault.NewInjector(nil, iofault.Plan{Op: 0, Kind: iofault.ShortWrite})
	s2, err := OpenFS(dir, "h1", inj)
	if err != nil {
		t.Fatal(err)
	}
	s2.Stage(1, []Record{rec(1, 1, "b")})
	if ok, err := s2.CommitNext(); ok || !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("torn commit = (%v, %v), want (false, the injected error)", ok, err)
	}
	s2.Stage(2, []Record{rec(2, 2, "c")})
	ops := inj.Ops()
	for i := 0; i < 2; i++ {
		if ok, err := s2.CommitNext(); ok || !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("commit after a failed write = (%v, %v), want the first error again", ok, err)
		}
	}
	if inj.Ops() != ops {
		t.Fatalf("a commit after a failed write performed %d I/O ops", inj.Ops()-ops)
	}
	if cp := s2.Checkpoint(); cp != before {
		t.Fatalf("failed commit moved the checkpoint: %+v -> %+v", before, cp)
	}
	s2.Close()

	s3, err := Open(dir, "h1")
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if cp := s3.Checkpoint(); cp != before {
		t.Fatalf("reopened checkpoint %+v, want %+v", cp, before)
	}
	stageCommit(t, s3, 1, rec(1, 1, "b"))
	if _, recs, err := Read(dir); err != nil || len(recs) != 2 || recs[1].ID != "b" {
		t.Fatalf("after reopen: recs=%+v err=%v", recs, err)
	}
}
