package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestOptionsCanonicalJSONPinned pins the canonical wire form of Options:
// the SHA-256 of json.Marshal for a spread of values — the zero value,
// every default spelled out, every field away from its default, and values
// the canonical form normalizes away — taken before the wire form moved
// onto the struct's own tags. The cache keys, result documents and
// campaign stores that embed Options hash these bytes. Each document must
// also decode back to the canonical value.
func TestOptionsCanonicalJSONPinned(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		digest string
	}{
		{"zero", Options{}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"defaults", Options{
			Name:            "March GEN",
			Orders:          OrderFree,
			MaxSOLen:        11,
			MaxRepairRounds: 4,
			SearchConfig:    sim.Config{Size: 4, MaxAnyElements: 12},
			FinalConfig:     sim.Config{Size: 4, ExhaustiveOrders: true, MaxAnyElements: 12},
		}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"every-field", Options{
			Name:              "March X",
			Aggressive:        true,
			Orders:            OrderUpOnly,
			SkipMinimize:      true,
			MaxSOLen:          7,
			MaxRepairRounds:   2,
			CertifyWithOracle: true,
			SearchConfig:      sim.Config{Size: 5, ExhaustiveOrders: true, MaxAnyElements: 3},
			FinalConfig:       sim.Config{Size: 6},
			Width:             8,
			Transparent:       true,
			Ports:             2,
		}, "395bec0e360f37b42957ded2f25a84dab7a165a32a9ae40f6bb6c23c5d2b3c35"},
		{"down", Options{Orders: OrderDownOnly}, "63c40106c57ea710cb1a9d00aa91f2483af3ea976da008bb6b487b81076c0c7d"},
		{"width-1-ports-1", Options{Width: 1, Ports: 1}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"negative-width", Options{Width: -3, Ports: -1}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"transparent-without-width", Options{Transparent: true}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"transparent-width-1", Options{Width: 1, Transparent: true}, "ea1cdbea0514b1b0d1434c66a5348eb76c3332f405cb953d6c16a5f62d2e279c"},
		{"axis-configs", Options{
			SearchConfig: sim.Config{Width: 4, Ports: 2},
			FinalConfig:  sim.Config{Size: 7, Width: 1, Ports: 1},
		}, "871fead7628bf511c5e621ef7d9446e6129bccbb2666f7a37931b988c325f898"},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: canonical JSON digest %s, pinned %s\n%s", c.name, got, c.digest, b)
		}
		var back Options
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: decode %s: %v", c.name, b, err)
		}
		if want := c.opts.Canonical(); back != want {
			t.Errorf("%s: %s decodes to %+v, want %+v", c.name, b, back, want)
		}
	}
}
