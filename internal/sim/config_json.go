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

// MarshalJSON encodes the canonical form under Config's own tags, so equal
// canonical configurations produce byte-identical JSON. Decoding uses the
// tags: omitted fields keep their documented defaults.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config
	return json.Marshal(plain(c.Canonical()))
}
