package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"marchgen/internal/sim"
)

func TestOrderConstraintRoundTrip(t *testing.T) {
	for _, c := range []OrderConstraint{OrderFree, OrderUpOnly, OrderDownOnly} {
		parsed, err := ParseOrderConstraint(c.String())
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if parsed != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), parsed)
		}
	}
	if _, err := ParseOrderConstraint("sideways"); err == nil {
		t.Fatal("invalid spelling accepted")
	}
	// The empty string is the JSON zero value and means "no constraint".
	if c, err := ParseOrderConstraint(""); err != nil || c != OrderFree {
		t.Fatalf("empty spelling: %v, %v", c, err)
	}
}

func TestOptionsCanonicalFillsDefaults(t *testing.T) {
	o := Options{}.Canonical()
	if o.Name != "March GEN" || o.MaxSOLen != 11 || o.MaxRepairRounds != 4 {
		t.Fatalf("zero options canonicalized to %+v", o)
	}
	if o.SearchConfig.Size != 4 || o.SearchConfig.ExhaustiveOrders {
		t.Fatalf("search config not canonical: %+v", o.SearchConfig)
	}
	if o.FinalConfig.Size != 4 || !o.FinalConfig.ExhaustiveOrders {
		t.Fatalf("final config not canonical: %+v", o.FinalConfig)
	}
	if got := o.Canonical(); got != o {
		t.Fatalf("Canonical not idempotent")
	}
}

func TestOptionsJSONStableBytes(t *testing.T) {
	zero, err := json.Marshal(Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := json.Marshal(Options{
		Name:            "March GEN",
		MaxSOLen:        11,
		MaxRepairRounds: 4,
		SearchConfig:    sim.Config{Size: 4, MaxAnyElements: 12},
		FinalConfig:     sim.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, full) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", zero, full)
	}
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	in := Options{Name: "March X", Aggressive: true, Orders: OrderDownOnly, MaxSOLen: 7}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Options
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want := in.Canonical()
	if out != want {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", out, want)
	}
}

func TestOptionsJSONRejectsBadOrders(t *testing.T) {
	var o Options
	if err := json.Unmarshal([]byte(`{"orders":"sideways"}`), &o); err == nil {
		t.Fatal("bad orders value accepted")
	}
}
