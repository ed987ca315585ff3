package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// storeTemplate builds one valid three-record store and returns its
// checkpoint, the data-file bytes, and the checkpoint-file bytes. Each
// fuzz iteration replays a mutated copy of these into a fresh directory.
func storeTemplate(tb testing.TB) (cp Checkpoint, data, cpRaw []byte) {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(dir, "fuzz-hash")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(map[string]any{"n": i, "payload": "abcdefghij"})
		s.Stage(i, []Record{{ID: fmt.Sprintf("u-%d", i), Shard: i, Seq: i, Body: body}})
		if _, err := s.CommitNext(); err != nil {
			tb.Fatal(err)
		}
	}
	cp = s.Checkpoint()
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, dataName))
	if err != nil {
		tb.Fatal(err)
	}
	cpRaw, err = os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		tb.Fatal(err)
	}
	return cp, data, cpRaw
}

// FuzzOpenTornTail drives store recovery with arbitrary damage to the
// data file — truncation at any offset, a byte flip at any offset, and
// appended garbage — and holds Open to its contract: if the committed
// prefix is intact it must recover exactly that prefix (truncating the
// tail); if the committed prefix itself is damaged it must fail with a
// diagnostic error. It must never panic, whatever the bytes.
func FuzzOpenTornTail(f *testing.F) {
	cp, template, cpRaw := storeTemplate(f)

	f.Add(uint16(0), uint16(0), byte(0), []byte(nil))                        // truncate to nothing
	f.Add(uint16(len(template)/2), uint16(0), byte(0), []byte(nil))          // torn mid-record
	f.Add(uint16(len(template)), uint16(5), byte(0xff), []byte(nil))         // flip inside the prefix
	f.Add(uint16(len(template)), uint16(0), byte(0), []byte(`{"id":"t`))     // torn appended tail
	f.Add(uint16(len(template)), uint16(0), byte(0), []byte("\x00\xff\n{]")) // binary garbage tail

	f.Fuzz(func(t *testing.T, truncAt, flipOff uint16, flipMask byte, tail []byte) {
		data := append([]byte(nil), template...)
		if int(truncAt) < len(data) {
			data = data[:truncAt]
		}
		if int(flipOff) < len(data) {
			data[flipOff] ^= flipMask
		}
		data = append(data, tail...)

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), cpRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dataName), data, 0o644); err != nil {
			t.Fatal(err)
		}

		intact := int64(len(data)) >= cp.Bytes && bytes.Equal(data[:cp.Bytes], template[:cp.Bytes])

		s, err := Open(dir, "fuzz-hash")
		if err != nil {
			if intact {
				t.Fatalf("intact committed prefix rejected: %v", err)
			}
			if err.Error() == "" {
				t.Fatal("damage reported with an empty error")
			}
			return
		}
		defer s.Close()

		recs, rerr := s.Records()
		if intact {
			// The exact committed prefix, bit for bit, and a truncated tail.
			if rerr != nil {
				t.Fatalf("recovered store cannot read its records: %v", rerr)
			}
			if len(recs) != cp.Records {
				t.Fatalf("recovered %d records, checkpoint commits %d", len(recs), cp.Records)
			}
			for i, r := range recs {
				if r.ID != fmt.Sprintf("u-%d", i) || r.Seq != i {
					t.Fatalf("record %d = %+v", i, r)
				}
			}
			st, err := os.Stat(filepath.Join(dir, dataName))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != cp.Bytes {
				t.Fatalf("tail not truncated: %d bytes on disk, %d committed", st.Size(), cp.Bytes)
			}
			return
		}
		// Damaged prefix that still parsed: Open's acceptance means the
		// structural invariants held — the record count must match the
		// checkpoint (semantic corruption inside record bodies is beyond
		// a checksum-free format, but counts and framing never lie).
		if rerr == nil && len(recs) != cp.Records {
			t.Fatalf("damaged store accepted with %d records against a checkpoint of %d", len(recs), cp.Records)
		}
	})
}
