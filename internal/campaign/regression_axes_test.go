package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"marchgen/internal/store"
)

// The literal values below were captured on the pre-axis build (before the
// ports/transparent axes and the optimizer BIST weight joined Spec and
// Unit). They pin the compatibility promise of the campaign layer: a spec
// that never mentions the new axes keeps its identity — same campaign id,
// same unit ids, byte-identical results.jsonl — so every pre-existing store
// directory still resumes, and the fabric still recognizes its shards.
const (
	prePRSpecID      = "c-04ffe0137137a2d2"
	prePRSpecHash    = "04ffe0137137a2d281bdc140d0826d2a8b4af221f0075cba4a4663a5d09432ac"
	prePRUnitID      = "u-e18cb244fed572c27eeb82da"
	prePRResultsSHA  = "e3f2ee21a9ed17d9ca0e44a3df1fdd2e1d09aa57ddea04c007d5764b42246351"
	prePRResultsSize = 688
)

// TestBitOrientedCampaignStoreMatchesPreAxisBuild runs a default-axes
// campaign end to end and pins its identity and store bytes to the pre-PR
// capture.
func TestBitOrientedCampaignStoreMatchesPreAxisBuild(t *testing.T) {
	spec := Spec{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1}
	if got := spec.ID(); got != prePRSpecID {
		t.Fatalf("spec.ID = %s, want pre-PR %s", got, prePRSpecID)
	}
	if got := spec.Hash(); got != prePRSpecHash {
		t.Fatalf("spec.Hash = %s, want pre-PR %s", got, prePRSpecHash)
	}
	root := t.TempDir()
	if _, err := Run(context.Background(), spec, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(store.DataPath(spec.Dir(root)))
	if err != nil {
		t.Fatal(err)
	}
	sum := hex.EncodeToString(func() []byte { s := sha256.Sum256(b); return s[:] }())
	if sum != prePRResultsSHA || len(b) != prePRResultsSize {
		t.Fatalf("results.jsonl = sha256 %s (%d bytes), want pre-PR %s (%d bytes)",
			sum, len(b), prePRResultsSHA, prePRResultsSize)
	}
	u := Unit{List: "list2", Profile: "standard", Order: "free", Size: 4, Width: 1}
	if got := u.ID(); got != prePRUnitID {
		t.Fatalf("unit.ID = %s, want pre-PR %s", got, prePRUnitID)
	}
}

// The store of a transparent List #2 unit at width 4, whose generated test
// refuses the transparent transform: the record keeps the plain word section
// and the word package's own refusal text. Captured when the campaign graded
// the word axis itself.
const (
	refusalResultsSHA  = "ffe39e2172b8c8f3bf348e0b6a952c5c596f56a7c823436c9be049f16a40ff4e"
	refusalResultsSize = 503
	refusalRecordTail  = `"word":{"width":4,"backgrounds":3,"faults":384,"detected":300},` +
		`"error":"word: transparent transform: test exits at 1, content not restored"}`
)

// TestTransparentRefusalStorePinned runs the refusing unit end to end and
// pins its store bytes.
func TestTransparentRefusalStorePinned(t *testing.T) {
	spec := Spec{Lists: []string{"list2"}, Widths: []int{4}, Transparent: []bool{true}}
	root := t.TempDir()
	if _, err := Run(context.Background(), spec, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(store.DataPath(spec.Dir(root)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), refusalRecordTail) {
		t.Errorf("results.jsonl lacks the refusal %s:\n%s", refusalRecordTail, b)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != refusalResultsSHA || len(b) != refusalResultsSize {
		t.Fatalf("results.jsonl = sha256 %x (%d bytes), want %s (%d bytes)",
			sum, len(b), refusalResultsSHA, refusalResultsSize)
	}
}

// TestDefaultAxisSpellingsShareIdentity checks the omit-at-default
// canonicalization: naming only the default value of a new axis is the same
// spec as never mentioning it.
func TestDefaultAxisSpellingsShareIdentity(t *testing.T) {
	base := Spec{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1}
	same := []Spec{
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Ports: []int{1}},
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Transparent: []bool{false}},
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Ports: []int{1, 1}, Transparent: []bool{false, false}},
	}
	for i, s := range same {
		if s.Hash() != base.Hash() {
			t.Fatalf("spec %d: default axis spelling changed the hash: %s != %s", i, s.Hash(), base.Hash())
		}
		if s.Units() != base.Units() {
			t.Fatalf("spec %d: default axis spelling changed the unit count: %d != %d", i, s.Units(), base.Units())
		}
	}
	for i, s := range []Spec{
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Ports: []int{2}},
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Ports: []int{1, 2}},
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Widths: []int{4}, Transparent: []bool{true}},
		{Lists: []string{"list2"}, Sizes: []int{3, 4}, ShardSize: 1, Optimize: []OptAxis{{Budget: 100, BISTWeight: 0.5}}},
	} {
		if s.Hash() == base.Hash() {
			t.Fatalf("spec %d: non-default axis did not change the hash", i)
		}
	}
	// Single-port units planned from a mixed-ports spec keep the pre-axis id.
	mixed := Spec{Lists: []string{"list2"}, Sizes: []int{4}, Ports: []int{1, 2}}
	shards := Plan(mixed)
	var ids []string
	for _, sh := range shards {
		for _, u := range sh.Units {
			ids = append(ids, u.ID())
		}
	}
	legacy := Unit{List: "list2", Profile: "standard", Order: "free", Size: 4, Width: 1}
	found := false
	for _, id := range ids {
		if id == legacy.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("mixed-ports plan lost the legacy single-port unit id %s (got %v)", legacy.ID(), ids)
	}
}
