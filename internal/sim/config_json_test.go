package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestConfigCanonicalFillsDefaults(t *testing.T) {
	c := Config{}.Canonical()
	if c.Size != 4 || c.MaxAnyElements != 12 {
		t.Fatalf("zero config canonicalized to %+v", c)
	}
	if got := c.Canonical(); got != c {
		t.Fatalf("Canonical not idempotent: %+v vs %+v", got, c)
	}
}

func TestConfigJSONStableBytes(t *testing.T) {
	// A zero config and a spelled-out default config must encode to the
	// exact same bytes: that is what makes the encoding usable as a cache
	// key.
	zero, err := json.Marshal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := json.Marshal(Config{Size: 4, MaxAnyElements: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, full) {
		t.Fatalf("canonical encodings differ:\n%s\n%s", zero, full)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	in := Config{Size: 6, ExhaustiveOrders: true, MaxAnyElements: 9}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want := in.Canonical()
	if out != want {
		t.Fatalf("round trip: got %+v, want %+v", out, want)
	}
}

func TestConfigJSONOmittedFieldsDefault(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{"exhaustive_orders":true}`), &c); err != nil {
		t.Fatal(err)
	}
	if !c.ExhaustiveOrders {
		t.Fatalf("exhaustive_orders lost: %+v", c)
	}
	if got := c.Canonical(); got.Size != 4 || got.MaxAnyElements != 12 {
		t.Fatalf("defaults not refilled after decode: %+v", got)
	}
}
