package sim

import "encoding/json"

// Canonical returns the configuration with every default made explicit:
// Size and MaxAnyElements are filled with their documented defaults, so a
// zero-value Config and a spelled-out default Config canonicalize to the
// same value.
//
// Canonical is idempotent. It is the normal form behind the JSON codec and
// behind content-addressed caching of simulation results (the marchd result
// cache hashes the canonical form, so equivalent requests share one entry).
func (c Config) Canonical() Config {
	c.Size = c.size()
	if c.MaxAnyElements <= 0 {
		c.MaxAnyElements = 12
	}
	// Width and Ports are identity-bearing, but their bit-oriented /
	// single-port defaults are normalized to 0 and omitted from the wire so
	// pre-axis requests and explicit width=1/ports=1 requests share one
	// canonical form (and therefore one cache key).
	if c.Width <= 1 {
		c.Width = 0
	}
	if c.Ports <= 1 {
		c.Ports = 0
	}
	return c
}

// configJSON is the wire form of a simulator configuration. Field order is
// fixed by this struct and defaults are always written explicitly.
type configJSON struct {
	Size             int  `json:"size"`
	ExhaustiveOrders bool `json:"exhaustive_orders"`
	MaxAnyElements   int  `json:"max_any_elements"`
	Width            int  `json:"width,omitempty"`
	Ports            int  `json:"ports,omitempty"`
}

// MarshalJSON encodes the canonical form: stable field order, defaults
// filled in. Equal canonical configurations produce byte-identical JSON.
func (c Config) MarshalJSON() ([]byte, error) {
	cc := c.Canonical()
	return json.Marshal(configJSON{
		Size:             cc.Size,
		ExhaustiveOrders: cc.ExhaustiveOrders,
		MaxAnyElements:   cc.MaxAnyElements,
		Width:            cc.Width,
		Ports:            cc.Ports,
	})
}

// UnmarshalJSON decodes a configuration; omitted fields keep their zero
// value and therefore their documented defaults.
func (c *Config) UnmarshalJSON(data []byte) error {
	var w configJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*c = Config{
		Size:             w.Size,
		ExhaustiveOrders: w.ExhaustiveOrders,
		MaxAnyElements:   w.MaxAnyElements,
		Width:            w.Width,
		Ports:            w.Ports,
	}
	return nil
}
