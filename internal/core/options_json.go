package core

import (
	"encoding/json"
	"fmt"
)

// String renders the constraint in the spelling the command-line tools and
// the HTTP API accept: "free", "up" or "down".
func (c OrderConstraint) String() string {
	switch c {
	case OrderUpOnly:
		return "up"
	case OrderDownOnly:
		return "down"
	}
	return "free"
}

// ParseOrderConstraint resolves the textual spelling of an order
// constraint. It is the single parser shared by cmd/marchgen and the marchd
// API, replacing the per-tool switch statements.
func ParseOrderConstraint(s string) (OrderConstraint, error) {
	switch s {
	case "", "free":
		return OrderFree, nil
	case "up":
		return OrderUpOnly, nil
	case "down":
		return OrderDownOnly, nil
	}
	return OrderFree, fmt.Errorf("core: invalid order constraint %q (want free, up or down)", s)
}

// MarshalJSON encodes the constraint as its textual spelling.
func (c OrderConstraint) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes and validates the textual spelling.
func (c *OrderConstraint) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseOrderConstraint(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// Canonical returns the options with every default made explicit: the
// test name, the phase bounds, and both simulator configurations (each
// itself canonicalized, see sim.Config.Canonical). Canonical is idempotent
// and is the normal form behind the JSON codec and the marchd result-cache
// key: a request that omits options hashes identically to one that spells
// out every default.
func (o Options) Canonical() Options {
	o.Name = o.name()
	o.MaxSOLen = o.maxSOLen()
	o.MaxRepairRounds = o.maxRepairRounds()
	o.SearchConfig = o.searchConfig().Canonical()
	o.FinalConfig = o.finalConfig().Canonical()
	// Axis options normalize their bit-oriented/single-port defaults to the
	// zero value and stay off the wire at defaults, so pre-axis requests and
	// explicit width=1/ports=1 requests hash to the same cache key.
	o = o.axisDefaults()
	return o
}

// MarshalJSON encodes the canonical form under Options' own tags (the order
// constraint as text), so equal canonical options produce byte-identical
// JSON. Decoding uses the tags: omitted fields keep their documented
// defaults, and a strict decoder refuses unknown keys at every depth.
func (o Options) MarshalJSON() ([]byte, error) {
	type plain Options
	return json.Marshal(plain(o.Canonical()))
}
