package fabric

import (
	"encoding/json"
	"fmt"
	"sort"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

// ValidateShard checks that records are exactly one shard's units in plan
// order with well-formed bodies — the admission test a reported shard
// passes before anything stages it in the store.
func ValidateShard(sh campaign.Shard, recs []store.Record) error {
	if len(recs) != len(sh.Units) {
		return fmt.Errorf("%w: shard %d: %d records, plan has %d units", ErrBadShard, sh.ID, len(recs), len(sh.Units))
	}
	for i, rec := range recs {
		u := sh.Units[i]
		if rec.Shard != sh.ID || rec.Seq != u.Seq || rec.ID != u.ID() {
			return fmt.Errorf("%w: shard %d record %d: got (shard=%d seq=%d id=%s), want (shard=%d seq=%d id=%s)",
				ErrBadShard, sh.ID, i, rec.Shard, rec.Seq, rec.ID, sh.ID, u.Seq, u.ID())
		}
		if !json.Valid(rec.Body) {
			return fmt.Errorf("%w: shard %d record %d: body is not valid JSON", ErrBadShard, sh.ID, rec.Seq)
		}
	}
	return nil
}

// GroupShards buckets loose records (a parsed segment file) into per-shard
// candidate slices ordered by unit sequence, dropping duplicate sequence
// numbers (first occurrence wins) and records naming shards outside the
// plan. A bucket may still be incomplete or mismatched, which ValidateShard
// rejects per shard.
func GroupShards(plan []campaign.Shard, recs []store.Record) map[int][]store.Record {
	buckets := make(map[int][]store.Record)
	seen := make(map[int]map[int]bool)
	for _, rec := range recs {
		if rec.Shard < 0 || rec.Shard >= len(plan) {
			continue
		}
		if seen[rec.Shard] == nil {
			seen[rec.Shard] = make(map[int]bool)
		}
		if seen[rec.Shard][rec.Seq] {
			continue
		}
		seen[rec.Shard][rec.Seq] = true
		buckets[rec.Shard] = append(buckets[rec.Shard], rec)
	}
	for shard, b := range buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].Seq < b[j].Seq })
		buckets[shard] = b
	}
	return buckets
}
