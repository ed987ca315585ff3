package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestConfigCanonicalJSONPinned pins the canonical wire form of Config: the
// SHA-256 of json.Marshal for a spread of values — the zero value, every
// default spelled out, every field away from its default, and values the
// canonical form normalizes away — taken before the wire form moved onto
// the struct's own tags. Cache keys and result documents embed these bytes.
// Each document must also decode back to the canonical value.
func TestConfigCanonicalJSONPinned(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"zero", Config{}, "543fb7f2c1dd247dc6ea4b767e259c645446576c5588102327a48d26ef7ea2b7"},
		{"default", DefaultConfig(), "39078e192a7a12ccc739956e558604611cb79d4f7736eb2594d7c9a4617c0dc0"},
		{"defaults", Config{Size: 4, ExhaustiveOrders: false, MaxAnyElements: 12}, "543fb7f2c1dd247dc6ea4b767e259c645446576c5588102327a48d26ef7ea2b7"},
		{"every-field", Config{Size: 5, ExhaustiveOrders: true, MaxAnyElements: 3, Width: 8, Ports: 2}, "491bddb4f6c2a2d26976275d04ce1b58eeb1d5f4c5d3d401ca219dd601c2797c"},
		{"size-16", Config{Size: 16, ExhaustiveOrders: true}, "4fd5969c197103bb2f73e7280755678c5d63278e9772b3ae323654d3b672ff4c"},
		{"width-1-ports-1", Config{Width: 1, Ports: 1}, "543fb7f2c1dd247dc6ea4b767e259c645446576c5588102327a48d26ef7ea2b7"},
		{"negative", Config{Size: -2, MaxAnyElements: -1, Width: -3, Ports: -1}, "543fb7f2c1dd247dc6ea4b767e259c645446576c5588102327a48d26ef7ea2b7"},
		{"width-64", Config{Width: 64}, "6ddf3cde02b8b13dfdb37cf58d5c1fc548bb0507e938c5bcec7126cf66141f5f"},
		{"scalar", Config{Size: 6, scalar: true}, "6194ef175570bae6f5fcf98eb32a4191fb73cb0ba28da748de9216533456964d"},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: canonical JSON digest %s, pinned %s\n%s", c.name, got, c.digest, b)
		}
		var back Config
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: decode %s: %v", c.name, b, err)
		}
		want := c.cfg.Canonical()
		want.scalar = false // the scalar switch never travels on the wire
		if back != want {
			t.Errorf("%s: %s decodes to %+v, want %+v", c.name, b, back, want)
		}
	}
}
