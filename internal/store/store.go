// Package store is the durable result store of the campaign engine
// (DESIGN.md §9): an append-only JSONL data file plus an index and an
// atomically-replaced checkpoint, all rooted in one directory.
//
// The store is the only committer of campaign results. It grows by whole
// shards in plan order: a writer stages a shard's records as they arrive, in
// any order, and CommitNext commits the shard the checkpoint reaches next.
// campaign.Run and the fabric coordinator both commit through it, which is
// what makes a distributed store byte-identical to a single-node one.
//
// The durability contract is built for SIGKILL-at-any-instant:
//
//   - results.jsonl only ever grows by whole appended lines; it is never
//     rewritten in place.
//   - checkpoint.json names the committed prefix of results.jsonl (byte
//     length, record count, shards) and is replaced atomically (write to a
//     temp file, fsync, rename, fsync the directory). A reader therefore
//     always sees either the previous or the next checkpoint, never a torn
//     one.
//   - Data is fsynced *before* the checkpoint that covers it, so a
//     checkpoint never points past durable bytes.
//   - On Open, anything in results.jsonl beyond the checkpointed length —
//     partial lines or whole uncommitted records from a killed run — is
//     truncated away. The store state after a crash is exactly the last
//     committed prefix, which is what makes resumed campaigns byte-identical
//     to uninterrupted ones.
//   - After a failed write the store takes no other until it is reopened:
//     the data file may then hold bytes past the checkpoint that the store
//     did not count, and only Open's truncation removes them.
//
// index.json (record ID → sequence position) is a derived convenience for
// readers; it is rewritten atomically at every commit and rebuilt from the
// data file on open, so it can never be the source of truth.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"marchgen/internal/iofault"
)

// Data file and metadata names inside a store directory.
const (
	dataName       = "results.jsonl"
	checkpointName = "checkpoint.json"
	indexName      = "index.json"
)

// Record is one unit result: an opaque JSON body addressed by ID, tagged
// with its position in the deterministic shard plan.
type Record struct {
	// ID is the content address of the unit (stable across runs).
	ID string `json:"id"`
	// Shard and Seq locate the record in the plan: Seq is the global unit
	// index, Shard the shard that produced it.
	Shard int `json:"shard"`
	Seq   int `json:"seq"`
	// Body is the unit's result document. It must be deterministic: two
	// runs of the same unit must produce byte-identical bodies.
	Body json.RawMessage `json:"body"`
}

// Checkpoint pins the committed prefix of the data file.
type Checkpoint struct {
	// SpecHash binds the store to one campaign spec; Open refuses to resume
	// a store created for a different spec.
	SpecHash string `json:"spec_hash"`
	// Shards is the number of leading shards committed.
	Shards int `json:"shards_committed"`
	// Records is the number of committed records.
	Records int `json:"records"`
	// Bytes is the committed length of results.jsonl.
	Bytes int64 `json:"bytes"`
}

// ErrSpecMismatch is returned by Open when the directory holds a store for
// a different spec hash: resuming would interleave incompatible results.
var ErrSpecMismatch = errors.New("store: directory belongs to a different spec")

// Store is an open result store. Its methods are safe for concurrent use;
// the commit order assumes one goroutine commits.
type Store struct {
	dir string
	fs  iofault.FS

	mu     sync.Mutex
	f      iofault.File
	cp     Checkpoint
	ids    map[string]int   // record ID -> Seq of the committed records (index.json)
	staged map[int][]Record // shards past the checkpoint, awaiting their turn
	err    error            // the first failed write; every later commit returns it
}

// Open opens (creating if necessary) the store in dir for the given spec
// hash. An existing store is recovered: the checkpoint is loaded, any
// uncommitted tail of the data file is truncated away, and the index is
// rebuilt from the committed prefix. A directory checkpointed under a
// different spec hash fails with ErrSpecMismatch.
func Open(dir, specHash string) (*Store, error) {
	return OpenFS(dir, specHash, iofault.OS{})
}

// OpenFS is Open with the filesystem made explicit: every mutating I/O
// operation of the store goes through fsys, so an iofault.Injector can
// fail or crash any of them deterministically (the chaos suite sweeps
// them all). A nil fsys means the real filesystem.
func OpenFS(dir, specHash string, fsys iofault.FS) (*Store, error) {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fs: fsys, ids: make(map[string]int), staged: make(map[int][]Record)}

	cpPath := filepath.Join(dir, checkpointName)
	raw, err := fsys.ReadFile(cpPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.cp = Checkpoint{SpecHash: specHash}
		b, err := json.Marshal(s.cp)
		if err != nil {
			return nil, fmt.Errorf("store: checkpoint: %w", err)
		}
		if err := WriteFileAtomicFS(fsys, cpPath, b); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("store: checkpoint: %w", err)
	default:
		if err := json.Unmarshal(raw, &s.cp); err != nil {
			return nil, fmt.Errorf("store: checkpoint corrupt: %w", err)
		}
		if s.cp.SpecHash != specHash {
			return nil, fmt.Errorf("%w: store has %q, caller wants %q", ErrSpecMismatch, s.cp.SpecHash, specHash)
		}
	}

	f, err := fsys.OpenFile(filepath.Join(dir, dataName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: data: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: data: %w", err)
	}
	if st.Size() < s.cp.Bytes {
		f.Close()
		return nil, fmt.Errorf("store: data file is %d bytes but checkpoint commits %d: store corrupt", st.Size(), s.cp.Bytes)
	}
	// Drop whatever a killed run appended past the last checkpoint.
	if st.Size() > s.cp.Bytes {
		if err := f.Truncate(s.cp.Bytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating uncommitted tail: %w", err)
		}
	}
	if _, err := f.Seek(s.cp.Bytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f

	// Rebuild the index from the committed prefix (index.json is derived
	// state; scanning the data file is the authoritative recovery path).
	recs, err := readRecords(dir, s.cp)
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, r := range recs {
		s.ids[r.ID] = r.Seq
	}
	return s, nil
}

// Checkpoint returns the last committed checkpoint.
func (s *Store) Checkpoint() Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// Stage holds one shard's records until every earlier shard has
// committed. It returns false, and keeps nothing, for a shard already
// committed or staged: a shard's records are deterministic, so the first
// copy to arrive is the one the store commits.
func (s *Store) Stage(shard int, recs []Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stagedLocked(shard) {
		return false
	}
	s.staged[shard] = recs
	return true
}

// Staged reports whether a shard is committed or staged.
func (s *Store) Staged(shard int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stagedLocked(shard)
}

func (s *Store) stagedLocked(shard int) bool {
	_, ok := s.staged[shard]
	return ok || shard < s.cp.Shards
}

// CommitNext commits the staged shard the checkpoint reaches next and
// advances Shards by one: it appends the shard's records, fsyncs the data
// file, rewrites index.json, then atomically replaces checkpoint.json. On
// return the committed prefix survives SIGKILL. It returns false when that
// shard is not staged.
//
// After a failed write every later CommitNext returns that error: the data
// file may hold bytes past the checkpoint that the store did not count, so
// the store takes no further write until it is reopened.
func (s *Store) CommitNext() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false, s.err
	}
	next := s.cp.Shards
	recs, ok := s.staged[next]
	if !ok {
		return false, nil
	}
	if err := s.commitLocked(next+1, recs); err != nil {
		s.err = err
		return false, err
	}
	delete(s.staged, next)
	return true, nil
}

// commitLocked appends recs as JSONL lines, fsyncs the data file, rewrites
// the index and replaces the checkpoint with one that covers the first
// shards shards.
func (s *Store) commitLocked(shards int, recs []Record) error {
	lines, err := encodeLines(recs)
	if err != nil {
		return err
	}
	next := s.cp
	next.Shards = shards
	next.Records += len(recs)
	next.Bytes += int64(len(lines))
	for _, rec := range recs {
		s.ids[rec.ID] = rec.Seq
	}
	// Marshal both metadata documents before touching the disk: a marshal
	// failure (impossible for these shapes, but never worth a panic
	// mid-run) must leave the store at its previous checkpoint.
	idx, err := json.Marshal(s.ids)
	if err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	cpb, err := json.Marshal(next)
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	if _, err := s.f.Write(lines); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := WriteFileAtomicFS(s.fs, filepath.Join(s.dir, indexName), idx); err != nil {
		return err
	}
	if err := WriteFileAtomicFS(s.fs, filepath.Join(s.dir, checkpointName), cpb); err != nil {
		return err
	}
	s.cp = next
	return nil
}

// encodeLines encodes recs as JSONL, one line per record: the one record
// encoding of results.jsonl and of the fabric's segment journals.
func encodeLines(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("store: record %s: %w", rec.ID, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// Records returns the committed records in append order.
func (s *Store) Records() ([]Record, error) {
	return readRecords(s.dir, s.Checkpoint())
}

// Close closes the data file. The store stays recoverable: everything up
// to the last commit is on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// Read loads a store directory read-only: its checkpoint and the committed
// records. Used by reporting (marchcamp report, the marchd campaign API)
// without taking writer ownership.
func Read(dir string) (Checkpoint, []Record, error) {
	cp, err := ReadCheckpoint(dir)
	if err != nil {
		return Checkpoint{}, nil, err
	}
	recs, err := readRecords(dir, cp)
	return cp, recs, err
}

// ReadCheckpoint loads only the checkpoint of a store directory — the
// cheap completeness probe (`marchcamp report` uses it to decide its exit
// code without re-reading the whole result set).
func ReadCheckpoint(dir string) (Checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("store: checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("store: checkpoint corrupt: %w", err)
	}
	return cp, nil
}

// readRecords decodes the committed prefix of the data file.
func readRecords(dir string, cp Checkpoint) ([]Record, error) {
	f, err := os.Open(filepath.Join(dir, dataName))
	if errors.Is(err, os.ErrNotExist) && cp.Bytes == 0 {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: data: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, cp.Bytes))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("store: record %d corrupt: %w", len(out), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: data: %w", err)
	}
	if len(out) != cp.Records {
		return nil, fmt.Errorf("store: committed prefix holds %d records but checkpoint commits %d", len(out), cp.Records)
	}
	return out, nil
}

// DataPath returns the path of the append-only data file inside a store
// directory (for serving the raw result set over HTTP).
func DataPath(dir string) string { return filepath.Join(dir, dataName) }

// WriteFileAtomicFS replaces path with data through the filesystem fsys
// (the OS when nil) via a same-directory temp file, fsyncing the file
// before the rename and the directory after it. A failed directory sync is
// reported: a rename whose durability is unknown must not be treated as
// committed.
func WriteFileAtomicFS(fsys iofault.FS, path string, data []byte) error {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}
