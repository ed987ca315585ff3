package faultlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
)

// referenceFaultJSON is the struct json.Marshal encoded a fault through
// before linked.Fault.MarshalJSON wrote its bytes directly. It is the
// reference the direct encoder must match byte for byte.
type referenceFaultJSON struct {
	Kind string   `json:"kind"`
	FPs  []string `json:"fps"`
}

func referenceMarshal(f linked.Fault) ([]byte, error) {
	w := referenceFaultJSON{Kind: f.Kind.String()}
	for _, b := range f.FPs {
		w.FPs = append(w.FPs, b.FP.String())
	}
	return json.Marshal(w)
}

func TestFaultMarshalJSONMatchesReference(t *testing.T) {
	var faults []linked.Fault
	for _, name := range Names() {
		list, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		faults = append(faults, list...)
	}
	faults = append(faults,
		linked.Fault{}, // no primitives: "fps":null
		linked.Fault{Kind: linked.Kind(9), Cells: 2, FPs: []linked.Binding{{FP: fp.FP{
			Cells: 2, AInit: fp.Value(7), Trigger: fp.TrigOp, OpRole: fp.RoleAggressor,
			Op: fp.Op{Kind: fp.OpKind(9), Data: fp.Value(5)},
		}}}},
	)
	for _, f := range faults {
		got, err := f.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", f.ID(), err)
		}
		want, err := referenceMarshal(f)
		if err != nil {
			t.Fatalf("%s: %v", f.ID(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalJSON = %s, reference %s", f.ID(), got, want)
		}
	}
}

// TestNamedListsPinned pins the order and content of every named list: the
// count and the SHA-256 of json.Marshal(list), captured before the
// enumerators pre-filtered pairs with linked.Links. Cache keys hash these
// bytes, so a reordered or re-encoded list would silently change every key.
func TestNamedListsPinned(t *testing.T) {
	pins := []struct {
		name   string
		count  int
		digest string
	}{
		{"list1", 594, "90999f14143b64369a77aceb0082813631415fab9ff7c952264f137213a311f2"},
		{"list2", 18, "ad9ec9a3ec33f3ad0bf27ac74a096831c32611af0c1c72e99f381b4f43cbe96e"},
		{"simple", 48, "7cc7b3a38542ee3a3f0ed3d396a52bfd96ccfaa5f3481ffbf420b9050e734c47"},
		{"simple1", 12, "301a1add460431cf2b9f0f47357bdac5f772c12a080899d39ee533844b560a9c"},
		{"simple2", 36, "b0d426aee7ac2b591c06f478264015a972afa90907cc1fb7ce79d4fee83052d9"},
		{"realistic1", 366, "1cd2323e5c09af3f183efa30509d8dc8247eba321583120f9d55bcf4828dfb36"},
		{"realistic2", 6, "858314ee03fb83c7dc347cc0ed17fd9c82dc8f4b878c6f692ff72e10a0f84356"},
		{"dynamic", 66, "083bc7b12e22d522718564f7cbfdc4e4b04e0fa44d88d7e0646e07b5d85b5f18"},
		{"dynamic1", 18, "d961125bc12890aa7088b0750390d0a11d0084bf65f5f1c7c0efc662c965f29b"},
		{"dynamic2", 48, "baec7e9a3d4ef456bfac3a1d0dc18f1011dc1ee636b5df6951783b62c81b7dd2"},
	}
	if len(pins) != len(Names()) {
		t.Fatalf("%d pins for %d named lists", len(pins), len(Names()))
	}
	for i, p := range pins {
		if Names()[i] != p.name {
			t.Fatalf("named list %d is %q, pinned %q", i, Names()[i], p.name)
		}
		faults, _ := ByName(p.name)
		b, err := json.Marshal(faults)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(faults) != p.count || got != p.digest {
			t.Errorf("%s: %d faults, digest %s; want %d, %s", p.name, len(faults), got, p.count, p.digest)
		}
	}
}

// TestList1Allocations guards the per-request cost of resolving List #1:
// about one allocation per fault (its bindings), not one error string per
// rejected pair.
func TestList1Allocations(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, func() { List1() }); allocs > 1000 {
		t.Fatalf("List1 allocates %.0f times per call, want at most 1000", allocs)
	}
}
