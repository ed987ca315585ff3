package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"

	"marchgen/internal/core"
	"marchgen/internal/iofault"
	"marchgen/internal/store"
)

// ErrNeedsResume is returned by Run when the store directory holds prior
// partial progress for the same spec and resumption was not requested:
// silently continuing or silently restarting would both be surprising.
var ErrNeedsResume = errors.New("campaign: store holds prior progress for this spec; pass resume to continue")

// Event kinds delivered to RunOptions.OnEvent.
const (
	// EventUnitDone fires after each unit executes (before its shard
	// commits); Seq and Err describe the unit.
	EventUnitDone = "unit-done"
	// EventShardCommitted fires after a shard's records are durably
	// committed; Shard is the shard just committed, Committed the new count.
	EventShardCommitted = "shard-committed"
)

// Event is one progress notification. Events are delivered serially (the
// engine holds a lock around the callback) but from engine goroutines, not
// the Run caller's.
type Event struct {
	Kind      string
	Shard     int
	Seq       int
	Committed int
	Err       string
}

// RunOptions tunes one Run call.
type RunOptions struct {
	// Workers bounds the number of shards executing concurrently;
	// 0 means GOMAXPROCS.
	Workers int
	// Resume permits continuing a store with prior partial progress.
	// Without it, Run on a partially-complete directory fails with
	// ErrNeedsResume. A complete campaign is always returned as-is.
	Resume bool
	// OnEvent, when set, receives progress events.
	OnEvent func(Event)
	// FS, when set, carries every mutating store I/O operation of this
	// run — the fault-injection seam the chaos suite drives with an
	// iofault.Injector. Nil means the real filesystem.
	FS iofault.FS
}

func (o RunOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Summary describes a finished (or already-finished) campaign run.
type Summary struct {
	ID          string `json:"id"`
	SpecHash    string `json:"spec_hash"`
	Dir         string `json:"dir"`
	Shards      int    `json:"shards"`
	Units       int    `json:"units"`
	ResumedFrom int    `json:"resumed_from_shards"`
	UnitErrors  int    `json:"unit_errors"`
}

// specFileName holds the human-readable campaign identity inside the store
// directory (the canonical spec plus its hash), written once and atomically.
const specFileName = "spec.json"

// SpecFile is the on-disk form of spec.json.
type SpecFile struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
}

// Dir returns the store directory of a spec under the given root.
func (s Spec) Dir(root string) string { return filepath.Join(root, s.ID()) }

// EnsureSpecFile writes dir/spec.json for the canonical spec if it is not
// already present. Both the single-node engine and the fabric coordinator
// go through it, so a campaign directory carries the same spec.json bytes
// whichever path created it.
func EnsureSpecFile(fsys iofault.FS, dir string, c Spec) error {
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if _, err := os.Stat(filepath.Join(dir, specFileName)); !errors.Is(err, os.ErrNotExist) {
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		return nil
	}
	sf, err := json.Marshal(SpecFile{ID: c.ID(), Hash: c.Hash(), Spec: c})
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return store.WriteFileAtomicFS(fsys, filepath.Join(dir, specFileName), sf)
}

// LoadSpecFile reads the spec.json of a campaign directory.
func LoadSpecFile(dir string) (SpecFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return SpecFile{}, fmt.Errorf("campaign: %w", err)
	}
	var sf SpecFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return SpecFile{}, fmt.Errorf("campaign: spec.json corrupt: %w", err)
	}
	return sf, nil
}

// shardOut is a worker's finished shard, delivered to the committer.
type shardOut struct {
	idx  int
	recs []store.Record
	err  error
}

// Run executes (or resumes) the campaign described by spec, with its store
// rooted at root/<campaign-id>. It returns once every shard is committed,
// the context is canceled, or an infrastructure error occurs. Shards are
// executed concurrently but committed strictly in plan order, and the
// checkpoint advances atomically after each commit — killing the process at
// any instant and re-running with Resume yields a result set byte-identical
// to an uninterrupted run.
func Run(ctx context.Context, spec Spec, root string, opts RunOptions) (Summary, error) {
	if err := spec.Validate(); err != nil {
		return Summary{}, err
	}
	c := spec.Canonical()
	hash := c.Hash()
	shards := Plan(c)
	dir := c.Dir(root)

	fsys := opts.FS
	if fsys == nil {
		fsys = iofault.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return Summary{}, fmt.Errorf("campaign: %w", err)
	}
	if err := EnsureSpecFile(fsys, dir, c); err != nil {
		return Summary{}, err
	}

	st, err := store.OpenFS(dir, hash, fsys)
	if err != nil {
		return Summary{}, err
	}
	defer st.Close()

	start := st.Checkpoint().Shards
	switch {
	case start >= len(shards):
		return summarize(c, dir, st, start) // already complete: idempotent
	case start > 0 && !opts.Resume:
		return Summary{}, fmt.Errorf("%w (%d/%d shards committed in %s)", ErrNeedsResume, start, len(shards), dir)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		eventMu sync.Mutex
		memo    = NewMemo()
	)
	emit := func(ev Event) {
		if opts.OnEvent == nil {
			return
		}
		eventMu.Lock()
		defer eventMu.Unlock()
		opts.OnEvent(ev)
	}

	shardCh := make(chan Shard)
	outCh := make(chan shardOut)
	var wg sync.WaitGroup
	for i := 0; i < opts.workers(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range shardCh {
				outCh <- safeRunShard(runCtx, sh, memo, emit)
			}
		}()
	}
	go func() {
		defer close(shardCh)
		for _, sh := range shards[start:] {
			select {
			case shardCh <- sh:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// The committer: shards complete in any order, but the store only ever
	// grows by the next shard in plan order, each commit advancing the
	// atomic checkpoint. Out-of-order completions wait in pending.
	pending := make(map[int][]store.Record)
	next := start
	var firstErr error
	for out := range outCh {
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
				cancel() // stop handing out further shards
			}
			continue
		}
		if firstErr != nil {
			continue // drain only: nothing commits after the first failure
		}
		pending[out.idx] = out.recs
		for {
			recs, ok := pending[next]
			if !ok {
				break
			}
			// Cancellation is honored *between* shard commits: once the
			// context dies, the store stays at its last checkpoint even if
			// later shards already finished executing — the same state a
			// SIGKILL between shards leaves behind.
			if err := runCtx.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			delete(pending, next)
			commitErr := func() error {
				for _, r := range recs {
					if err := st.Append(r); err != nil {
						return err
					}
				}
				return st.Commit(next + 1)
			}()
			if commitErr != nil {
				if firstErr == nil {
					firstErr = commitErr
					cancel()
				}
				break
			}
			next++
			emit(Event{Kind: EventShardCommitted, Shard: next - 1, Committed: next})
		}
	}
	if firstErr == nil && next < len(shards) {
		// The dispatcher stops handing out shards once the context dies, so
		// a cancellation that lands before a shard starts leaves no shard
		// error behind; without this a cut-short campaign reads as done.
		firstErr = runCtx.Err()
	}
	if firstErr != nil {
		return Summary{}, firstErr
	}
	return summarize(c, dir, st, start)
}

// safeRunShard contains panics from a shard's unit work (or a panicking
// OnEvent callback): instead of killing the worker goroutine — which
// would deadlock the committer and poison the whole pool — a panic fails
// the shard with its captured stack, and the campaign aborts cleanly at
// the last committed checkpoint.
func safeRunShard(ctx context.Context, sh Shard, memo *Memo, emit func(Event)) (out shardOut) {
	defer func() {
		if r := recover(); r != nil {
			out = shardOut{idx: sh.ID, err: fmt.Errorf("campaign: shard %d panicked: %v\n%s", sh.ID, r, debug.Stack())}
		}
	}()
	return runShard(ctx, sh, memo, emit)
}

// runShard executes a shard's units in order, aborting on the first
// infrastructure error (cancellation).
func runShard(ctx context.Context, sh Shard, memo *Memo, emit func(Event)) shardOut {
	recs := make([]store.Record, 0, len(sh.Units))
	for _, u := range sh.Units {
		if err := ctx.Err(); err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		res, err := runUnitMemo(ctx, u, memo)
		if err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		body, err := marshalResult(res)
		if err != nil {
			return shardOut{idx: sh.ID, err: err}
		}
		recs = append(recs, store.Record{ID: u.ID(), Shard: sh.ID, Seq: u.Seq, Body: body})
		emit(Event{Kind: EventUnitDone, Shard: sh.ID, Seq: u.Seq, Err: res.Error})
	}
	return shardOut{idx: sh.ID, recs: recs}
}

// ExecuteShard runs one shard of a plan and returns its records in exactly
// the committed form — the worker half of the distributed fabric
// (internal/fabric). Records are deterministic functions of the shard's
// units, so two workers executing the same shard produce identical bytes.
func ExecuteShard(ctx context.Context, sh Shard, memo *Memo) ([]store.Record, error) {
	out := safeRunShard(ctx, sh, memo, func(Event) {})
	return out.recs, out.err
}

func summarize(c Spec, dir string, st *store.Store, resumedFrom int) (Summary, error) {
	recs, err := st.Records()
	if err != nil {
		return Summary{}, err
	}
	unitErrs := 0
	for _, r := range recs {
		var doc struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(r.Body, &doc) == nil && doc.Error != "" {
			unitErrs++
		}
	}
	return Summary{
		ID:          c.ID(),
		SpecHash:    c.Hash(),
		Dir:         dir,
		Shards:      st.Checkpoint().Shards,
		Units:       st.Checkpoint().Records,
		ResumedFrom: resumedFrom,
		UnitErrors:  unitErrs,
	}, nil
}

// Memo deduplicates generation work across units that share generator
// coordinates (list, profile, order, size) and differ only in derived axes
// (width, topology, verify, optimize): the first unit generates, the rest
// reuse the result.
// Results are deterministic, so memoization cannot change any record — which
// is also why fabric workers can each hold a private Memo without breaking
// the byte-identity of the merged result set.
type Memo struct {
	mu sync.Mutex
	m  map[string]*genEntry
}

type genEntry struct {
	once sync.Once
	res  core.Result
	err  error
}

// NewMemo returns an empty generation memo, shareable across ExecuteShard
// calls of one process.
func NewMemo() *Memo { return &Memo{m: make(map[string]*genEntry)} }

// runUnitMemo is runUnit with the generation step memoized on the unit's
// generator coordinates.
func runUnitMemo(ctx context.Context, u Unit, memo *Memo) (UnitResult, error) {
	if memo == nil {
		return runUnit(ctx, u)
	}
	key := fmt.Sprintf("%s|%s|%s|%d", u.List, u.Profile, u.Order, u.Size)
	memo.mu.Lock()
	e, ok := memo.m[key]
	if !ok {
		e = &genEntry{}
		memo.m[key] = e
	}
	memo.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = generateForUnit(ctx, u)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// A canceled generation must not poison the memo for a later
		// resume within the same process.
		memo.mu.Lock()
		if memo.m[key] == e {
			delete(memo.m, key)
		}
		memo.mu.Unlock()
		return UnitResult{Unit: u}, e.err
	}
	return buildResult(ctx, u, e.res, e.err)
}
