package mport

import "testing"

// TestMarch2P pins the library test itself, without regenerating it: the
// spec round-trips through Parse, the test is consistent on 4 cells, has
// 183n over 90 elements and covers the whole catalog.
func TestMarch2P(t *testing.T) {
	m := March2P()
	if m.Name != "March 2P" {
		t.Errorf("name %q, want March 2P", m.Name)
	}
	if got := m.ASCII(); got != march2PSpec {
		t.Errorf("spec does not round-trip:\n got %s\nwant %s", got, march2PSpec)
	}
	if m.Length() != 183 || len(m.Elems) != 90 {
		t.Errorf("%dn over %d elements, want 183n over 90", m.Length(), len(m.Elems))
	}
	if err := m.CheckConsistency(4); err != nil {
		t.Error(err)
	}
	rep, err := Simulate(m, Catalog(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full() || rep.Total != 38 {
		t.Errorf("coverage %s, want 38/38", rep.Summary())
	}

	// Each call parses afresh: editing one result leaves the next whole.
	m.Elems[0].Ops[0] = m.Elems[1].Ops[0]
	if got := March2P().ASCII(); got != march2PSpec {
		t.Errorf("an edited result changed the next call: %s", got)
	}
}
