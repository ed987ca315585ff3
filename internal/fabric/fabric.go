// Package fabric is the distributed campaign layer (DESIGN.md §13): one
// marchd in coordinator mode leases contiguous shard ranges of a campaign
// plan to N peer marchd workers over plain HTTP; workers execute shards
// with the existing campaign runner (campaign.ExecuteShard) and stream the
// completed records back; the coordinator journals every report into a
// per-worker segment file (internal/store segments) and merges shards
// through the same in-order committer as a single-node run — so the final
// store is byte-identical to what `marchcamp run` would have produced on
// one machine, in the same c-<hash16> directory layout.
//
// The protocol is deliberately small and pull-based:
//
//	POST join       worker introduces itself; version/schema skew rejected
//	POST lease      worker asks for work; gets a shard range [From,To)
//	POST heartbeat  worker extends its lease before the TTL expires
//	POST complete   worker reports one finished shard's records
//
// Failure model: a worker that stops heartbeating simply lets its lease
// expire — the coordinator sweeps expired leases lazily and returns their
// unfinished shards to the pending set for reassignment. When nothing is
// pending, an idle worker steals the tail half of the largest outstanding
// lease, so one straggler never gates campaign completion. Both paths can
// double-execute a shard; that is safe because unit results are
// deterministic, so duplicate reports carry identical bytes and the merger
// commits whichever arrives first.
package fabric

import (
	"errors"
	"time"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// Protocol errors. HTTP handlers map these to status codes; typed sentinels
// keep the core logic transport-independent.
var (
	// ErrSkew rejects a join whose build version or spec-schema version
	// differs from the coordinator's: mixing records derived under
	// different schemas would silently corrupt the byte-identity claim.
	ErrSkew = errors.New("fabric: version skew")
	// ErrUnknownWorker rejects requests from a worker id that never joined
	// (or joined a previous coordinator incarnation).
	ErrUnknownWorker = errors.New("fabric: unknown worker")
	// ErrUnknownLease rejects heartbeats/completes for a lease that no
	// longer exists — typically because it expired and was reassigned.
	ErrUnknownLease = errors.New("fabric: unknown lease")
	// ErrUnknownCampaign rejects requests naming a campaign the
	// coordinator is not running.
	ErrUnknownCampaign = errors.New("fabric: unknown campaign")
	// ErrBadShard rejects a completed shard whose records do not match the
	// plan (wrong count, ids, order, or invalid JSON bodies).
	ErrBadShard = errors.New("fabric: shard records do not match plan")
)

// JoinRequest introduces a worker to the coordinator. Version and Schema
// are mandatory: the handshake is the version-skew guard.
type JoinRequest struct {
	// Name is an optional display label; the coordinator always assigns
	// the canonical worker id itself.
	Name string `json:"name,omitempty"`
	// Version is the worker's buildinfo.Version().
	Version string `json:"version"`
	// Schema is the worker's campaign.SpecSchema.
	Schema string `json:"schema"`
}

// JoinResponse acknowledges a join and assigns the worker its id.
type JoinResponse struct {
	// Worker is the coordinator-assigned worker id (w1, w2, ...) used in
	// every subsequent request and as the segment file name.
	Worker string `json:"worker"`
	// Version and Schema echo the coordinator's own versions.
	Version string `json:"version"`
	Schema  string `json:"schema"`
}

// LeaseRequest asks for a shard range to execute.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant is one leased shard range of one campaign.
type LeaseGrant struct {
	// Lease is the lease id, quoted back in heartbeats and completes.
	Lease string `json:"lease"`
	// Campaign is the campaign id (c-<hash16>).
	Campaign string `json:"campaign"`
	// Spec is the canonical spec; the worker derives the identical plan
	// locally (Plan is a pure function of the canonical spec).
	Spec campaign.Spec `json:"spec"`
	// From and To bound the leased shard range [From, To).
	From int `json:"from"`
	To   int `json:"to"`
	// TTLMillis is the lease TTL; the worker must heartbeat well within it.
	TTLMillis int64 `json:"ttl_ms"`
}

// TTL returns the grant's TTL as a duration.
func (g LeaseGrant) TTL() time.Duration { return time.Duration(g.TTLMillis) * time.Millisecond }

// LeaseResponse answers a lease request. Exactly one of the three shapes
// applies: a grant, "nothing right now, poll again", or "all campaigns
// complete, you can go home".
type LeaseResponse struct {
	Lease *LeaseGrant `json:"lease,omitempty"`
	// Idle is set when no work is available but campaigns are still
	// running (or none have been submitted yet): poll again later.
	Idle bool `json:"idle,omitempty"`
	// Drained is set when every known campaign is fully committed.
	Drained bool `json:"drained,omitempty"`
}

// HeartbeatRequest extends a lease's expiry.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// HeartbeatResponse returns the lease's current bounds — which may have
// shrunk since the grant if a peer stole the tail. The worker must not
// execute shards at or beyond To.
type HeartbeatResponse struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// CompleteRequest reports one executed shard. Records must be exactly the
// shard's units in plan order, in committed form (campaign.ExecuteShard
// output).
type CompleteRequest struct {
	Worker   string         `json:"worker"`
	Lease    string         `json:"lease"`
	Campaign string         `json:"campaign"`
	Shard    int            `json:"shard"`
	Records  []store.Record `json:"records"`
}

// CompleteResponse acknowledges a completed shard and returns the lease's
// current bounds, so the worker learns about steals without an extra
// round-trip. Done reports whether the whole campaign is now committed.
type CompleteResponse struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Duplicate is set when the shard had already been merged (a stolen
	// or reassigned range double-executed) — harmless, by design.
	Duplicate bool `json:"duplicate,omitempty"`
	Done      bool `json:"done,omitempty"`
}

// Counters are the fabric's monotonic event counters, published under
// "fabric" in /metrics. JSON keys are the metric names.
type Counters struct {
	Joins       uint64 `json:"fabric_joins_total"`
	JoinRejects uint64 `json:"fabric_join_rejects_total"`
	Leases      uint64 `json:"fabric_leases_total"`
	Steals      uint64 `json:"fabric_steals_total"`
	Reassigns   uint64 `json:"fabric_reassigns_total"`
	Completes   uint64 `json:"fabric_completed_shards_total"`
	Duplicates  uint64 `json:"fabric_duplicate_shards_total"`
}

// Status is the coordinator's full observable state (GET status).
type Status struct {
	Workers   []WorkerStatus  `json:"workers"`
	Campaigns []SessionStatus `json:"campaigns"`
	Counters  Counters        `json:"counters"`
}

// WorkerStatus describes one joined worker.
type WorkerStatus struct {
	Worker  string `json:"worker"`
	Name    string `json:"name,omitempty"`
	Version string `json:"version"`
	// Shards is the number of shards this worker has completed (first
	// report wins; duplicates do not count).
	Shards int `json:"shards"`
}

// SessionStatus describes one campaign the coordinator is distributing.
type SessionStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Dir    string `json:"dir"`
	Shards int    `json:"shards"`
	Units  int    `json:"units"`
	// Committed counts shards merged into the store so far.
	Committed int  `json:"committed"`
	Done      bool `json:"done"`
	// Leases are the outstanding (unexpired, unfinished) leases.
	Leases []LeaseStatus `json:"leases,omitempty"`
	// ShardsByWorker attributes committed shards to the worker whose
	// report merged first.
	ShardsByWorker map[string]int `json:"shards_by_worker,omitempty"`
}

// LeaseStatus describes one outstanding lease.
type LeaseStatus struct {
	Lease     string `json:"lease"`
	Worker    string `json:"worker"`
	From      int    `json:"from"`
	To        int    `json:"to"`
	ExpiresMS int64  `json:"expires_ms"`
}
