package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"marchgen"
	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// resultCache is a concurrency-safe LRU over content-addressed result
// documents. Keys are canonical hashes (see generateKey), values are the
// exact marshaled response bytes — a cache hit therefore returns
// byte-identical output to the request that populated it.
//
// With a persistence directory set, the cache is write-through: every Put
// lands the entry as <dir>/<key>.json via the store's atomic write, an
// eviction deletes its file, and warmStart reloads the most recent
// CacheSize entries at boot — a restarted node serves its working set
// from the first request. Keys are content addresses, so a reloaded entry
// can never be wrong, only unused (a schema bump changes every key and
// strands the old files until eviction cleans them up).
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	dir   string // "" disables persistence
	logf  func(format string, args ...any)
}

type cacheEntry struct {
	key string
	val []byte
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = 128
	}
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached bytes and refreshes the entry's recency. The
// returned slice is shared and must be treated as immutable.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes an entry, evicting the least recently used one
// when the cache is over capacity. With persistence enabled the entry is
// also written through to disk (atomically; a write failure is logged and
// the entry stays memory-only) and evicted entries lose their files.
func (c *resultCache) Put(key string, val []byte) {
	c.put(key, val, true)
}

func (c *resultCache) put(key string, val []byte, persist bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if persist && c.dir != "" {
		if err := store.WriteFileAtomicFS(iofault.OS{}, c.entryPath(key), val); err != nil && c.logf != nil {
			c.logf("cache persist %s: %v", key, err)
		}
	}
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		k := oldest.Value.(*cacheEntry).key
		delete(c.items, k)
		if c.dir != "" {
			// Best-effort: a leftover file only costs disk until the key is
			// evicted again; it can never serve a wrong answer.
			_ = os.Remove(c.entryPath(k))
		}
	}
}

func (c *resultCache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// enablePersist turns on write-through persistence rooted at dir and
// warm-starts the LRU from the entries already there: the newest (by
// mtime) up-to-capacity files are loaded, oldest first, so recency order
// survives the restart. Unreadable files and stray names are skipped.
func (c *resultCache) enablePersist(dir string, logf func(format string, args ...any)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: cache dir: %w", err)
	}
	c.mu.Lock()
	c.dir = dir
	c.logf = logf
	max := c.max
	c.mu.Unlock()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: cache warm-start: %w", err)
	}
	type candidate struct {
		key   string
		path  string
		mtime int64
	}
	var cands []candidate
	for _, e := range entries {
		name := e.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() || !isHexKey(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		cands = append(cands, candidate{key: key, path: filepath.Join(dir, name), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime < cands[j].mtime })
	if len(cands) > max {
		cands = cands[len(cands)-max:]
	}
	loaded := 0
	for _, cand := range cands {
		val, err := os.ReadFile(cand.path)
		if err != nil || len(val) == 0 {
			continue
		}
		c.put(cand.key, val, false)
		loaded++
	}
	if logf != nil && loaded > 0 {
		logf("cache warm-start: %d entries from %s", loaded, dir)
	}
	return nil
}

// isHexKey reports whether s looks like one of our SHA-256 content
// addresses; anything else in the cache directory is ignored.
func isHexKey(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// contentKey is the content address of a schema-tagged key payload: the
// hex SHA-256 of its JSON encoding.
func contentKey(payload any) (string, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("service: cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// generateKeySchema versions the key derivation; bump it whenever the
// result document or the canonical encodings change shape, so stale cache
// entries can never be served across an upgrade. v3: march.Test JSON gained
// origin/provenance fields.
const generateKeySchema = "marchd/generate/v3"

// generateKey derives the content address of a generation request: a
// SHA-256 over the canonical JSON of the fault list and the canonicalized
// options (stable field order, defaults filled in, result-irrelevant knobs
// normalized — see Options.Canonical). Requests that differ only in
// spelling (named list vs. the same faults inline, omitted vs. explicit
// defaults) therefore share one cache entry.
func generateKey(faults []marchgen.Fault, opts marchgen.Options) (string, error) {
	return contentKey(struct {
		Schema  string           `json:"schema"`
		Faults  []marchgen.Fault `json:"faults"`
		Options marchgen.Options `json:"options"`
	}{generateKeySchema, faults, opts.Canonical()})
}

// verifyKeySchema versions the /v1/verify key derivation; bump it on any
// shape change of the verify result document or its canonical inputs.
// v2: march.Test JSON gained origin/provenance fields.
const verifyKeySchema = "marchd/verify/v2"

// verifyKey derives the content address of a verification request: the
// march test, the fault list and the canonicalized simulator configuration.
func verifyKey(t marchgen.March, faults []marchgen.Fault, cfg marchgen.SimConfig) (string, error) {
	return contentKey(struct {
		Schema string             `json:"schema"`
		March  marchgen.March     `json:"march"`
		Faults []marchgen.Fault   `json:"faults"`
		Config marchgen.SimConfig `json:"config"`
	}{verifyKeySchema, t, faults, cfg.Canonical()})
}

// diagnoseKeySchema versions the /v1/diagnose key derivation. The endpoint
// is new in this schema, so v1 covers its whole history.
const diagnoseKeySchema = "marchd/diagnose/v1"

// diagnoseObservation is the canonical form of one observation for key
// derivation: the resolved march test — reduced to its name and element
// string, so library metadata (source, origin) never changes the address —
// plus the sorted syndrome key.
type diagnoseObservation struct {
	Name     string `json:"name"`
	Spec     string `json:"spec"`
	Syndrome string `json:"syndrome"`
}

// diagnoseKey derives the content address of a diagnosis request: the fault
// list, the canonicalized simulator configuration and the observation
// sequence (tests plus sorted syndromes). Localization is a pure function of
// these inputs, so equal keys mean byte-identical candidate sets.
func diagnoseKey(faults []marchgen.Fault, cfg marchgen.SimConfig, obs []diagnoseObservation) (string, error) {
	return contentKey(struct {
		Schema       string                `json:"schema"`
		Faults       []marchgen.Fault      `json:"faults"`
		Config       marchgen.SimConfig    `json:"config"`
		Observations []diagnoseObservation `json:"observations"`
	}{diagnoseKeySchema, faults, cfg.Canonical(), obs})
}

// optimizeKeySchema versions the /v1/optimize key derivation; bump it on any
// shape change of the optimize result document or its canonical inputs.
const optimizeKeySchema = "marchd/optimize/v1"

// optimizeKey derives the content address of an optimization request: the
// fault list, the resolved seed test (or the canonical generator options
// when the seed is generated), and every search knob that can change the
// winner. An optimizer run is a pure function of these inputs, so equal
// keys really do mean byte-identical results.
func optimizeKey(faults []marchgen.Fault, seedTest *marchgen.March, opts marchgen.OptimizeOptions) (string, error) {
	payload := struct {
		Schema    string            `json:"schema"`
		Faults    []marchgen.Fault  `json:"faults"`
		SeedTest  *marchgen.March   `json:"seed_test,omitempty"`
		Generator *marchgen.Options `json:"generator,omitempty"`
		Name      string            `json:"name"`
		Seed      int64             `json:"seed"`
		Budget    int               `json:"budget"`
		Beam      int               `json:"beam"`
		Restarts  int               `json:"restarts"`
		BISTCells int               `json:"bist_cells"`
		// BISTWeight joined in PR 10; omitempty keeps every pre-existing
		// key (weight 0) byte-identical.
		BISTWeight float64 `json:"bist_weight,omitempty"`
	}{
		Schema:     optimizeKeySchema,
		Faults:     faults,
		SeedTest:   seedTest,
		Name:       opts.Name,
		Seed:       opts.Seed,
		Budget:     opts.Budget,
		Beam:       opts.BeamWidth,
		Restarts:   opts.Restarts,
		BISTCells:  opts.BISTCells,
		BISTWeight: opts.BISTWeight,
	}
	if seedTest == nil {
		gen := opts.Generator.Canonical()
		payload.Generator = &gen
	}
	return contentKey(payload)
}
