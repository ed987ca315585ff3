package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"marchgen/internal/iofault"
)

// Per-worker segment files (DESIGN.md §13): the distributed campaign fabric
// records every shard a worker reports into segments/<worker>.jsonl inside
// the campaign directory, before the shard is committed to the authoritative
// store. Segments follow the same append-only JSONL discipline as
// results.jsonl, with the same failure model: a coordinator killed
// mid-append leaves at worst one torn trailing line, which ParseSegment
// drops on recovery. Unlike results.jsonl they carry no checkpoint — they
// are an ingest journal, ordered by arrival, not by plan; the merge into
// the committed store is what restores plan order.

// segmentsDirName is the subdirectory of a campaign store that holds the
// per-worker ingest segments.
const segmentsDirName = "segments"

// SegmentsDir returns the segment directory of a campaign store directory.
func SegmentsDir(dir string) string { return filepath.Join(dir, segmentsDirName) }

// SegmentPath returns the segment file of one worker inside a campaign
// store directory. The worker id is coordinator-assigned (w1, w2, ...), so
// it is always a safe file name.
func SegmentPath(dir, worker string) string {
	return filepath.Join(SegmentsDir(dir), worker+".jsonl")
}

// AppendSegmentFS appends records to a segment file as JSONL lines and
// fsyncs before returning: once it succeeds, a kill cannot lose the
// reported shard. A failed write or fsync truncates the file back to its
// size before the append, so the torn line it may leave cannot swallow the
// records later appends add. The parent directory must exist. Every
// mutating operation goes through fsys so the chaos suite can fault it.
func AppendSegmentFS(fsys iofault.FS, path string, recs []Record) error {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	lines, err := encodeLines(recs)
	if err != nil {
		return err
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment: %w", err)
	}
	if _, err := f.Write(lines); err != nil {
		return abandonAppend(f, st.Size(), fmt.Errorf("store: segment append: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abandonAppend(f, st.Size(), fmt.Errorf("store: segment sync: %w", err))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: segment: %w", err)
	}
	return nil
}

// abandonAppend truncates f back to size, dropping an append that failed
// with err, and closes it. A failed truncate is joined to err.
func abandonAppend(f iofault.File, size int64, err error) error {
	if terr := f.Truncate(size); terr != nil {
		err = fmt.Errorf("%w; store: segment truncate: %w", err, terr)
	}
	f.Close()
	return err
}

// ParseSegment decodes a segment file's records, tolerating the one kind
// of damage an append-only file can suffer: a torn tail. Decoding stops at
// the first line that is not a complete record — everything before it is
// returned, everything from it on is dropped (the same truncation
// discipline Open applies to results.jsonl). It never returns an error:
// a completely unreadable segment is simply an empty one.
func ParseSegment(data []byte) []Record {
	var out []Record
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		} else {
			// No terminating newline: a torn tail by definition.
			return out
		}
		data = rest
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return out
		}
		out = append(out, r)
	}
	return out
}

// ReadSegments loads every segment file under a campaign store directory,
// keyed by worker id. A missing segment directory is an empty result, not
// an error — campaigns run single-node never have one.
func ReadSegments(dir string) (map[string][]Record, error) {
	entries, err := os.ReadDir(SegmentsDir(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: segments: %w", err)
	}
	out := make(map[string][]Record)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".jsonl" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(SegmentsDir(dir), name))
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", name, err)
		}
		out[name[:len(name)-len(".jsonl")]] = ParseSegment(raw)
	}
	return out, nil
}
