// Package campaign is the batch sweep engine (DESIGN.md §9): it expands a
// declarative Spec — the cross-product of fault lists, generator profiles,
// address-order constraints, memory sizes, word widths and array topologies —
// into a deterministic shard plan, executes the shards on a bounded worker
// pool, and records every unit result in the durable append-only store of
// internal/store. A killed campaign resumes from its last atomic checkpoint
// and produces a result set byte-identical to an uninterrupted run.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/topo"
)

// specSchema versions the campaign identity derivation. Bump it whenever
// the canonical spec encoding, the unit encoding, or the result document
// changes shape: old store directories then refuse to resume instead of
// mixing incompatible records. v3: the optimize axis (budget, seed) joined
// the spec, the unit coordinates and the result document.
const specSchema = "marchcamp/spec/v3"

// SpecSchema is the public name of the identity schema version. The fabric
// join handshake (internal/fabric) exchanges it so a coordinator and its
// workers can refuse to mix records across incompatible derivations.
const SpecSchema = specSchema

// MaxSize is the largest memory, in cells, a spec may sweep. marchd's
// simulating endpoints (/v1/simulate, /v1/detects, /v1/verify and
// /v1/diagnose) share the bound.
const MaxSize = 16

// Generator profiles a spec may sweep.
const (
	ProfileStandard   = "standard"   // default minimization (March ABL profile)
	ProfileAggressive = "aggressive" // deeper minimization (March RABL profile)
)

// Spec declares a campaign: every axis is a list of values and the campaign
// is their full cross-product, one generated-and-certified march test per
// combination. Omitted axes default to a single neutral value, so the
// smallest useful spec is just {"lists": ["list2"]}.
type Spec struct {
	// Name labels the campaign in reports; it does not enter the identity.
	Name string `json:"name,omitempty"`
	// Lists are the named fault lists to target (faultlist.Names()).
	Lists []string `json:"lists"`
	// Profiles selects minimization depth: "standard" and/or "aggressive".
	Profiles []string `json:"profiles,omitempty"`
	// Orders are generator order constraints: "free", "up", "down".
	Orders []string `json:"orders,omitempty"`
	// Sizes are memory sizes n (cells) for the exhaustive certification
	// configuration. Default [4], the paper's configuration.
	Sizes []int `json:"sizes,omitempty"`
	// Widths are word widths: width 1 is the paper's bit-oriented memory;
	// width w > 1 additionally evaluates the generated test on the
	// intra-word faults of a w-bit word with the standard log2(w)+1 data
	// backgrounds.
	Widths []int `json:"widths,omitempty"`
	// Ports are port counts: 1 is the paper's single-port memory; 2
	// additionally evaluates the lifted (port B idle) form of each unit's
	// test against the two-port weak-fault catalog. The single-port default
	// is omitted from the canonical form, so pre-axis specs keep their
	// hashes.
	Ports []int `json:"ports,omitempty"`
	// Transparent sweeps the transparent (in-field) transform: true
	// additionally evaluates the transparent form of each width>1 unit's
	// test, which preserves memory content instead of initializing it. The
	// false default is omitted from the canonical form.
	Transparent []bool `json:"transparent,omitempty"`
	// Topologies are array shapes "RxC" (e.g. "8x8"); each unit reports the
	// BIST application cost on that array and how much physical adjacency
	// the shape hides from logical address order.
	Topologies []string `json:"topologies,omitempty"`
	// Verify selects whether each unit's certified test is additionally
	// cross-checked against the independent reference oracle
	// (internal/oracle); the unit result then records the divergence count.
	// Default [false]. A spec of [false, true] sweeps both.
	Verify []bool `json:"verify,omitempty"`
	// Optimize sweeps the search-based optimizer (internal/optimize) over
	// each unit's generated test: every axis value runs the optimizer with
	// that evaluation budget and rng seed, recording the resulting length —
	// the raw material of the length-vs-budget frontier report. The default
	// single value {Budget: 0} disables optimization.
	Optimize []OptAxis `json:"optimize,omitempty"`
	// ShardSize is the number of units per shard (the checkpoint
	// granularity). Default 4.
	ShardSize int `json:"shard_size,omitempty"`
}

// OptAxis is one optimizer sweep point: an evaluation budget (0 = no
// optimization), the rng seed of the run, and the BIST-cycle fitness weight
// (0 = pure length minimization, the historical objective). Seed 0
// canonicalizes to 1, the optimizer's default; BISTWeight is omitted at 0,
// so weight-free specs keep their hashes.
type OptAxis struct {
	Budget     int     `json:"budget"`
	Seed       int64   `json:"seed,omitempty"`
	BISTWeight float64 `json:"bist_weight,omitempty"`
}

// Canonical returns the spec with every default made explicit and
// duplicate axis values removed (first occurrence wins). Axis order is
// preserved — it determines the deterministic unit order — and the result
// is idempotent: the canonical form is what Hash digests and what the
// store binds to.
func (s Spec) Canonical() Spec {
	s.Lists = dedup(s.Lists)
	s.Profiles = dedup(s.Profiles)
	if len(s.Profiles) == 0 {
		s.Profiles = []string{ProfileStandard}
	}
	s.Orders = dedup(s.Orders)
	if len(s.Orders) == 0 {
		s.Orders = []string{"free"}
	}
	s.Sizes = dedup(s.Sizes)
	if len(s.Sizes) == 0 {
		s.Sizes = []int{4}
	}
	s.Widths = dedup(s.Widths)
	if len(s.Widths) == 0 {
		s.Widths = []int{1}
	}
	// Ports and Transparent canonicalize the other way: the single default
	// value is dropped rather than filled in, so a spec that never mentions
	// the axis hashes identically to one that names only the default —
	// and identically to every pre-axis spec. Plan fills the default back
	// in locally.
	s.Ports = dedup(s.Ports)
	if len(s.Ports) == 1 && s.Ports[0] == 1 {
		s.Ports = nil
	}
	s.Transparent = dedup(s.Transparent)
	if len(s.Transparent) == 1 && !s.Transparent[0] {
		s.Transparent = nil
	}
	s.Topologies = dedup(s.Topologies)
	if len(s.Topologies) == 0 {
		s.Topologies = []string{""}
	}
	s.Verify = dedup(s.Verify)
	if len(s.Verify) == 0 {
		s.Verify = []bool{false}
	}
	s.Optimize = dedupOpt(s.Optimize)
	if len(s.Optimize) == 0 {
		s.Optimize = []OptAxis{{}}
	}
	if s.ShardSize <= 0 {
		s.ShardSize = 4
	}
	return s
}

// Validate checks every axis value against the packages that will consume
// it, so a bad spec fails before any work is scheduled.
func (s Spec) Validate() error {
	c := s.Canonical()
	if len(c.Lists) == 0 {
		return fmt.Errorf("campaign: spec names no fault lists")
	}
	for _, l := range c.Lists {
		if _, ok := faultlist.ByName(l); !ok {
			return fmt.Errorf("campaign: unknown fault list %q (known: %v)", l, faultlist.Names())
		}
	}
	for _, p := range c.Profiles {
		if p != ProfileStandard && p != ProfileAggressive {
			return fmt.Errorf("campaign: unknown profile %q (want %q or %q)", p, ProfileStandard, ProfileAggressive)
		}
	}
	for _, o := range c.Orders {
		if _, err := core.ParseOrderConstraint(o); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
	}
	for _, n := range c.Sizes {
		if n < 3 || n > MaxSize {
			return fmt.Errorf("campaign: memory size %d out of range [3,%d]", n, MaxSize)
		}
	}
	for _, w := range c.Widths {
		if w < 1 || w > 64 {
			return fmt.Errorf("campaign: word width %d out of range [1,64]", w)
		}
	}
	for _, p := range c.Ports {
		if p < 1 || p > 2 {
			return fmt.Errorf("campaign: port count %d out of range [1,2]", p)
		}
	}
	for _, t := range c.Topologies {
		if t == "" {
			continue
		}
		if _, err := ParseTopology(t); err != nil {
			return err
		}
	}
	for _, o := range c.Optimize {
		if o.Budget < 0 || o.Budget > 1_000_000 {
			return fmt.Errorf("campaign: optimize budget %d out of range [0,1000000]", o.Budget)
		}
		if o.Seed < 0 {
			return fmt.Errorf("campaign: optimize seed %d must be non-negative", o.Seed)
		}
		if o.BISTWeight < 0 || o.BISTWeight > 1000 {
			return fmt.Errorf("campaign: optimize bist_weight %g out of range [0,1000]", o.BISTWeight)
		}
	}
	return nil
}

// Hash returns the campaign's content address: the SHA-256 of the
// schema-versioned canonical spec (minus the display name). Two specs that
// differ only in spelling — omitted vs explicit defaults, duplicated axis
// values — hash identically.
func (s Spec) Hash() string {
	c := s.Canonical()
	c.Name = ""
	payload := struct {
		Schema string `json:"schema"`
		Spec   Spec   `json:"spec"`
	}{specSchema, c}
	// Invariant (pinned by TestIdentityNeverPanics): Spec is strings,
	// ints and slices of them — shapes encoding/json can never fail on,
	// whatever bytes a request put in them. The panic is therefore
	// unreachable from request data; it guards against someone adding a
	// chan/func/cycle field to Spec without revisiting this derivation.
	b, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ID returns the campaign identifier derived from the spec hash — the
// directory name under the store root and the {id} of the marchd API.
func (s Spec) ID() string { return "c-" + s.Hash()[:16] }

// ParseTopology parses an array shape "RxC" into a topology.
func ParseTopology(spec string) (topo.Topology, error) {
	r, c, ok := strings.Cut(spec, "x")
	if !ok {
		return topo.Topology{}, fmt.Errorf("campaign: topology %q: want \"RxC\" (e.g. \"8x8\")", spec)
	}
	rows, err1 := strconv.Atoi(strings.TrimSpace(r))
	cols, err2 := strconv.Atoi(strings.TrimSpace(c))
	if err1 != nil || err2 != nil {
		return topo.Topology{}, fmt.Errorf("campaign: topology %q: want \"RxC\" (e.g. \"8x8\")", spec)
	}
	t, err := topo.New(rows, cols)
	if err != nil {
		return topo.Topology{}, fmt.Errorf("campaign: topology %q: %v", spec, err)
	}
	return t, nil
}

// Unit is one point of the cross-product: the coordinates of a single
// generate-and-certify run. Units are ordered and numbered by the
// deterministic expansion of the canonical spec.
type Unit struct {
	Seq     int    `json:"seq"`
	List    string `json:"list"`
	Profile string `json:"profile"`
	Order   string `json:"order"`
	Size    int    `json:"size"`
	Width   int    `json:"width"`
	// Ports is 0 for the single-port default (the axis value 1 normalizes
	// to 0 at planning time, so single-port units keep their pre-axis IDs)
	// and 2 for the two-port evaluation.
	Ports int `json:"ports,omitempty"`
	// Transparent selects the in-field (content-preserving) evaluation of a
	// width>1 unit; false is omitted so pre-axis unit IDs are unchanged.
	Transparent bool   `json:"transparent,omitempty"`
	Topology    string `json:"topology,omitempty"`
	Verify      bool   `json:"verify,omitempty"`
	// OptBudget, OptSeed and OptBISTWeight are the optimizer sweep
	// coordinates; a zero budget means the unit records generation only.
	OptBudget     int     `json:"opt_budget,omitempty"`
	OptSeed       int64   `json:"opt_seed,omitempty"`
	OptBISTWeight float64 `json:"opt_bist_weight,omitempty"`
}

// ID returns the unit's content address: a SHA-256 over the
// schema-versioned axes (not the sequence number, so the same coordinates
// address the same result across campaigns).
func (u Unit) ID() string {
	key := u
	key.Seq = 0
	payload := struct {
		Schema string `json:"schema"`
		Unit   Unit   `json:"unit"`
	}{specSchema, key}
	// Same invariant as Spec.Hash: Unit is strings and ints only, so the
	// marshal cannot fail on request-supplied values (TestIdentityNeverPanics).
	b, err := json.Marshal(payload)
	if err != nil {
		panic(fmt.Sprintf("campaign: unit id: %v", err))
	}
	sum := sha256.Sum256(b)
	return "u-" + hex.EncodeToString(sum[:12])
}

// Shard is a contiguous slice of the unit sequence: the unit of scheduling,
// commitment and resumption.
type Shard struct {
	ID    int
	Units []Unit
}

// Plan expands the spec into its deterministic shard plan. The unit order
// is the nested iteration list → profile → order → size → width → ports →
// transparent → topology → verify → optimize over the canonical axes; shards
// are consecutive runs of ShardSize units. Equal canonical specs always
// produce identical plans — this is what makes checkpoints portable across
// processes.
func Plan(s Spec) []Shard {
	c := s.Canonical()
	ports := c.Ports
	if len(ports) == 0 {
		ports = []int{1}
	}
	transparent := c.Transparent
	if len(transparent) == 0 {
		transparent = []bool{false}
	}
	var units []Unit
	for _, list := range c.Lists {
		for _, prof := range c.Profiles {
			for _, ord := range c.Orders {
				for _, size := range c.Sizes {
					for _, width := range c.Widths {
						for _, pc := range ports {
							for _, tr := range transparent {
								for _, tp := range c.Topologies {
									for _, vf := range c.Verify {
										for _, opt := range c.Optimize {
											u := Unit{
												Seq: len(units), List: list, Profile: prof,
												Order: ord, Size: size, Width: width,
												Transparent: tr, Topology: tp, Verify: vf,
												OptBudget: opt.Budget, OptSeed: opt.Seed,
												OptBISTWeight: opt.BISTWeight,
											}
											if pc > 1 {
												u.Ports = pc
											}
											units = append(units, u)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	var shards []Shard
	for start := 0; start < len(units); start += c.ShardSize {
		end := start + c.ShardSize
		if end > len(units) {
			end = len(units)
		}
		shards = append(shards, Shard{ID: len(shards), Units: units[start:end]})
	}
	return shards
}

// Units counts the plan's units without materializing shards.
func (s Spec) Units() int {
	c := s.Canonical()
	n := len(c.Lists) * len(c.Profiles) * len(c.Orders) * len(c.Sizes) *
		len(c.Widths) * len(c.Topologies) * len(c.Verify) * len(c.Optimize)
	if len(c.Ports) > 0 {
		n *= len(c.Ports)
	}
	if len(c.Transparent) > 0 {
		n *= len(c.Transparent)
	}
	return n
}

// dedup drops repeated values, keeping the first occurrence of each in
// order; an input without values comes back nil, which spec hashes rely on.
func dedup[T comparable](in []T) []T {
	var out []T
	seen := make(map[T]bool, len(in))
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func dedupOpt(in []OptAxis) []OptAxis {
	norm := make([]OptAxis, len(in))
	for i, v := range in {
		if v.Budget > 0 && v.Seed == 0 {
			v.Seed = 1 // the optimizer's default, made explicit
		}
		if v.Budget == 0 {
			v.Seed = 0 // seed and weight are meaningless without a budget
			v.BISTWeight = 0
		}
		norm[i] = v
	}
	return dedup(norm)
}
