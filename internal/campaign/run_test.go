package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"marchgen/internal/store"
)

// sweepSpec is the multi-unit spec the resume tests interrupt: six units
// (three order constraints × two memory sizes) in six single-unit shards,
// so there are many distinct kill points.
func sweepSpec() Spec {
	return Spec{
		Name:      "resume-sweep",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up", "down"},
		Sizes:     []int{3, 4},
		ShardSize: 1,
	}
}

func resultsBytes(t *testing.T, spec Spec, root string) []byte {
	t.Helper()
	b, err := os.ReadFile(store.DataPath(spec.Dir(root)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunSingleUnitCampaign(t *testing.T) {
	root := t.TempDir()
	spec := Spec{Name: "tiny", Lists: []string{"list2"}}
	sum, err := Run(context.Background(), spec, root, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Units != 1 || sum.Shards != 1 || sum.UnitErrors != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	_, recs, err := store.Read(spec.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	results, err := Decode(recs)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Error != "" {
		t.Fatalf("unit error: %s", r.Error)
	}
	if r.Coverage.Detected != r.Coverage.Total || r.Coverage.Total != 18 {
		t.Fatalf("coverage = %+v, want full coverage of the 18 list2 faults", r.Coverage)
	}
	if r.Length == 0 || r.Test == "" || r.BIST.Cycles == 0 {
		t.Fatalf("result incomplete: %+v", r)
	}
	// Re-running a complete campaign is idempotent: same summary, no work.
	again, err := Run(context.Background(), spec, root, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Units != 1 || again.ResumedFrom != 1 {
		t.Fatalf("idempotent rerun summary = %+v", again)
	}
}

// A campaign whose context is cancelled before any shard starts stopped
// short: Run must say so with the context's error, never with the summary
// of a complete campaign. The dispatcher races the cancellation against
// the first hand-off, so the run is repeated.
func TestRunCancelledBeforeFirstShardIsInterrupted(t *testing.T) {
	spec := sweepSpec()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sum, err := Run(ctx, spec, t.TempDir(), RunOptions{Workers: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, summary %+v; want context.Canceled", i, err, sum)
		}
	}
}

// TestKillResumeByteIdentical is the acceptance-criteria integration test:
// a campaign killed mid-run (after some shards committed, with a torn
// partial append in the data file — the on-disk state SIGKILL between and
// during shard commits leaves behind) must, after `--resume`, produce a
// result set byte-identical to an uninterrupted run of the same spec.
func TestKillResumeByteIdentical(t *testing.T) {
	spec := sweepSpec()

	// Reference: one uninterrupted run.
	refRoot := t.TempDir()
	refSum, err := Run(context.Background(), spec, refRoot, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if refSum.Units != 6 || refSum.Shards != 6 {
		t.Fatalf("reference summary = %+v", refSum)
	}
	ref := resultsBytes(t, spec, refRoot)

	// Interrupted: cancel the run once two shards have committed.
	killRoot := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed atomic.Int32
	_, err = Run(ctx, spec, killRoot, RunOptions{
		Workers: 2,
		OnEvent: func(ev Event) {
			if ev.Kind == EventShardCommitted && committed.Add(1) == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	dir := spec.Dir(killRoot)
	cp, _, err := store.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Shards < 2 || cp.Shards >= 6 {
		t.Fatalf("kill point left %d shards committed, want a genuine mid-run state", cp.Shards)
	}
	// SIGKILL mid-append: leave a torn half-record past the checkpoint.
	f, err := os.OpenFile(store.DataPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"u-torn","shard":99,"seq":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Without resume, continuing is refused.
	if _, err := Run(context.Background(), spec, killRoot, RunOptions{}); !errors.Is(err, ErrNeedsResume) {
		t.Fatalf("rerun without resume: err = %v, want ErrNeedsResume", err)
	}

	// Resume and finish.
	sum, err := Run(context.Background(), spec, killRoot, RunOptions{Workers: 4, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Units != 6 || sum.Shards != 6 {
		t.Fatalf("resumed summary = %+v", sum)
	}
	if sum.ResumedFrom != int(cp.Shards) {
		t.Fatalf("resumed from %d shards, checkpoint said %d", sum.ResumedFrom, cp.Shards)
	}

	got := resultsBytes(t, spec, killRoot)
	if string(got) != string(ref) {
		t.Fatalf("resumed result set differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}
}

// TestKillResumeByteIdenticalWithAxes extends the kill/resume guarantee to
// the word/port axes: a width=4, ports∈{1,2} campaign interrupted mid-run
// must resume to a store byte-identical to an uninterrupted run, with the
// per-unit word and multi-port sections fully populated.
func TestKillResumeByteIdenticalWithAxes(t *testing.T) {
	spec := Spec{
		Name:      "axes-resume",
		Lists:     []string{"list2"},
		Orders:    []string{"free", "up"},
		Sizes:     []int{3},
		Widths:    []int{4},
		Ports:     []int{1, 2},
		ShardSize: 1,
	}
	if got := spec.Units(); got != 4 {
		t.Fatalf("spec plans %d units, want 4 (2 order constraints × 2 port counts)", got)
	}

	// Reference: one uninterrupted run.
	refRoot := t.TempDir()
	refSum, err := Run(context.Background(), spec, refRoot, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if refSum.Units != 4 || refSum.Shards != 4 || refSum.UnitErrors != 0 {
		t.Fatalf("reference summary = %+v", refSum)
	}
	ref := resultsBytes(t, spec, refRoot)

	// Interrupted: cancel once one shard has committed, tear the tail.
	killRoot := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed atomic.Int32
	_, err = Run(ctx, spec, killRoot, RunOptions{
		Workers: 2,
		OnEvent: func(ev Event) {
			if ev.Kind == EventShardCommitted && committed.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	dir := spec.Dir(killRoot)
	cp, _, err := store.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Shards < 1 || cp.Shards >= 4 {
		t.Fatalf("kill point left %d shards committed, want a genuine mid-run state", cp.Shards)
	}
	f, err := os.OpenFile(store.DataPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"u-torn","shard":99,"seq":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sum, err := Run(context.Background(), spec, killRoot, RunOptions{Workers: 4, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Units != 4 || sum.Shards != 4 {
		t.Fatalf("resumed summary = %+v", sum)
	}
	got := resultsBytes(t, spec, killRoot)
	if string(got) != string(ref) {
		t.Fatalf("resumed axis campaign differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}

	// The axis sections really ran: every unit carries a width-4 word
	// section, and the two-port units a multi-port section whose dedicated
	// test covers weak faults the lifted single-port march cannot.
	_, recs, err := store.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Decode(recs)
	if err != nil {
		t.Fatal(err)
	}
	twoPort := 0
	for _, r := range results {
		id := r.Unit.ID()
		if r.Error != "" {
			t.Fatalf("unit %s error: %s", id, r.Error)
		}
		if r.Word == nil || r.Word.Width != 4 || r.Word.Faults == 0 || r.Word.Detected == 0 {
			t.Fatalf("unit %s word section = %+v, want a populated width-4 evaluation", id, r.Word)
		}
		if r.Unit.Ports > 1 {
			twoPort++
			if r.Mport == nil || r.Mport.Ports != 2 || r.Mport.TestDetected == 0 {
				t.Fatalf("unit %s mport section = %+v", id, r.Mport)
			}
			if r.Mport.LiftedDetected != 0 {
				t.Fatalf("unit %s: lifted single-port march detected %d weak faults, want 0",
					id, r.Mport.LiftedDetected)
			}
		} else if r.Mport != nil {
			t.Fatalf("single-port unit %s has an mport section: %+v", id, r.Mport)
		}
	}
	if twoPort != 2 {
		t.Fatalf("two-port units = %d, want 2", twoPort)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Lists: []string{"nope"}}, t.TempDir(), RunOptions{}); err == nil {
		t.Fatal("invalid spec ran")
	}
}

func TestSpecFileWritten(t *testing.T) {
	root := t.TempDir()
	spec := Spec{Name: "meta", Lists: []string{"list2"}}
	if _, err := Run(context.Background(), spec, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	sf, err := LoadSpecFile(spec.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	if sf.ID != spec.ID() || sf.Hash != spec.Hash() || sf.Spec.Name != "meta" {
		t.Fatalf("spec file = %+v", sf)
	}
	if len(sf.Spec.Profiles) == 0 {
		t.Fatal("spec file does not hold the canonical spec")
	}
}

func TestReportRenders(t *testing.T) {
	root := t.TempDir()
	spec := Spec{Name: "rep", Lists: []string{"list2"}, Widths: []int{1, 4}, Topologies: []string{"", "8x8"}}
	if _, err := Run(context.Background(), spec, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Report(&b, spec.Dir(root)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Campaign " + spec.ID(), "list2", "8x8", "4/4 units", "Generated tests:", "vs LF1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRecordsRoundTripThroughStore(t *testing.T) {
	root := t.TempDir()
	spec := Spec{Lists: []string{"list2"}, Widths: []int{4}}
	if _, err := Run(context.Background(), spec, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	_, recs, err := store.Read(spec.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	var doc UnitResult
	if err := json.Unmarshal(recs[0].Body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Word == nil || doc.Word.Width != 4 || doc.Word.Faults == 0 {
		t.Fatalf("word evaluation missing: %+v", doc.Word)
	}
	if doc.Word.Detected != doc.Word.Faults {
		t.Logf("note: word coverage %d/%d (informational)", doc.Word.Detected, doc.Word.Faults)
	}
	if _, err := os.Stat(filepath.Join(spec.Dir(root), "index.json")); err != nil {
		t.Fatalf("index.json not written: %v", err)
	}
}

// A verify-enabled unit records the oracle cross-check in its result
// document, and the two simulators agree on the generated test.
func TestRunVerifyUnit(t *testing.T) {
	root := t.TempDir()
	spec := Spec{Name: "verify", Lists: []string{"list2"}, Verify: []bool{true}}
	sum, err := Run(context.Background(), spec, root, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Units != 1 || sum.UnitErrors != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	_, recs, err := store.Read(spec.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	results, err := Decode(recs)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Verify == nil {
		t.Fatal("verify-enabled unit recorded no verify document")
	}
	if r.Verify.Faults != 18 || r.Verify.Divergences != 0 || r.Verify.First != "" {
		t.Fatalf("verify document = %+v, want 18 faults and zero divergences", r.Verify)
	}
	// A verify-disabled spec omits the document entirely.
	plain := Spec{Name: "plain", Lists: []string{"list2"}}
	if _, err := Run(context.Background(), plain, root, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	_, precs, err := store.Read(plain.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	presults, err := Decode(precs)
	if err != nil {
		t.Fatal(err)
	}
	if presults[0].Verify != nil {
		t.Fatalf("verify-disabled unit recorded a verify document: %+v", presults[0].Verify)
	}
}

// An optimize-enabled unit records the optimizer sweep point: the certified
// winner, its length against the generated seed, and the search effort —
// and two runs of the same spec in different roots are byte-identical
// (the frontier data is a pure function of the unit coordinates).
func TestRunOptimizeUnit(t *testing.T) {
	spec := Spec{
		Name:     "opt",
		Lists:    []string{"list2"},
		Optimize: []OptAxis{{}, {Budget: 200, Seed: 7}},
	}
	root := t.TempDir()
	sum, err := Run(context.Background(), spec, root, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Units != 2 || sum.UnitErrors != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	_, recs, err := store.Read(spec.Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	results, err := Decode(recs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Optimize != nil {
		t.Fatalf("budget-0 unit recorded an optimize document: %+v", results[0].Optimize)
	}
	o := results[1].Optimize
	if o == nil {
		t.Fatal("optimize-enabled unit recorded no optimize document")
	}
	if o.Budget != 200 || o.Seed != 7 {
		t.Fatalf("optimize knobs = %+v", o)
	}
	if o.SeedLength != results[1].Length {
		t.Fatalf("optimizer seed length %d != generated length %d", o.SeedLength, results[1].Length)
	}
	if o.Length == 0 || o.Length > o.SeedLength || o.Test == "" || o.MoveTrace == "" {
		t.Fatalf("optimize document incomplete: %+v", o)
	}
	if o.Evaluations == 0 || o.Evaluations > 200 {
		t.Fatalf("evaluations = %d, want within the 200 budget", o.Evaluations)
	}

	// Repeat run in a fresh root: byte-identical result set.
	root2 := t.TempDir()
	if _, err := Run(context.Background(), spec, root2, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if string(resultsBytes(t, spec, root)) != string(resultsBytes(t, spec, root2)) {
		t.Fatal("two runs of the same optimize spec produced different result bytes")
	}

	// The frontier renders from the stored records.
	var b strings.Builder
	if err := Report(&b, spec.Dir(root)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Length-vs-budget frontier", "Seed len", "Opt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
