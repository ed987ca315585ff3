package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"marchgen/internal/campaign"
	"marchgen/internal/store"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeSpec drops a minimal one-unit spec file and returns its path.
func writeSpec(t *testing.T, spec any) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVersion(t *testing.T) {
	code, out, _ := runCmd("-version")
	if code != exitOK || !strings.HasPrefix(out, "marchcamp ") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                          // no subcommand
		{"frobnicate"},              // unknown subcommand
		{"plan"},                    // plan without -spec
		{"run", "-spec", "nope"},    // run without -dir
		{"run", "-dir", "d"},        // run without -spec
		{"report"},                  // report without -dir
		{"plan", "-spec", "/nope1"}, // unreadable spec
	}
	for _, args := range cases {
		if code, _, _ := runCmd(args...); code != exitUsage {
			t.Errorf("args %v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestExampleIsAValidSpec(t *testing.T) {
	code, out, _ := runCmd("example")
	if code != exitOK {
		t.Fatalf("exit = %d", code)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	code, planOut, stderr := runCmd("plan", "-spec", path)
	if code != exitOK {
		t.Fatalf("plan of the example spec failed: %s", stderr)
	}
	if !strings.Contains(planOut, "campaign c-") || !strings.Contains(planOut, "shard") {
		t.Fatalf("plan output:\n%s", planOut)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	path := writeSpec(t, map[string]any{"lists": []string{"no-such-list"}})
	if code, _, stderr := runCmd("plan", "-spec", path); code != exitUsage || !strings.Contains(stderr, "unknown fault list") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	unknown := writeSpec(t, map[string]any{"lists": []string{"list2"}, "bogus_field": 1})
	if code, _, _ := runCmd("plan", "-spec", unknown); code != exitUsage {
		t.Fatalf("unknown spec field accepted")
	}
}

func TestRunAndReportRoundTrip(t *testing.T) {
	spec := writeSpec(t, map[string]any{"name": "cli-smoke", "lists": []string{"list2"}})
	dir := t.TempDir()

	code, out, stderr := runCmd("run", "-spec", spec, "-dir", dir, "-quiet")
	if code != exitOK {
		t.Fatalf("run exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "complete: 1 units in 1 shards") {
		t.Fatalf("run output:\n%s", out)
	}

	// Re-running the identical spec is an idempotent no-op.
	if code, out, _ = runCmd("run", "-spec", spec, "-dir", dir, "-quiet"); code != exitOK {
		t.Fatalf("idempotent rerun exit = %d\n%s", code, out)
	}

	code, rep, stderr := runCmd("report", "-dir", dir)
	if code != exitOK {
		t.Fatalf("report exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"cli-smoke", "list2", "1/1 units", "Generated tests:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestReportExitsIncompleteOnPartialResults pins the completeness gate:
// a campaign with only some of its shards committed still prints the
// partial matrix, but exits 4 so scripts cannot mistake a half-finished
// sweep (interrupted run, cluster still in flight) for final data.
func TestReportExitsIncompleteOnPartialResults(t *testing.T) {
	spec := campaign.Spec{Name: "partial", Lists: []string{"list2"}, Orders: []string{"up", "down"}, ShardSize: 1}
	spec = spec.Canonical()
	root := t.TempDir()
	dir := spec.Dir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := campaign.EnsureSpecFile(nil, dir, spec); err != nil {
		t.Fatal(err)
	}
	plan := campaign.Plan(spec)
	if len(plan) != 2 {
		t.Fatalf("plan has %d shards, want 2", len(plan))
	}
	st, err := store.Open(dir, spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ExecuteShard(context.Background(), plan[0], campaign.NewMemo())
	if err != nil {
		t.Fatal(err)
	}
	st.Stage(0, recs)
	if _, err := st.CommitNext(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCmd("report", "-dir", root)
	if code != exitIncomplete {
		t.Fatalf("partial report exit = %d, want %d; stderr:\n%s", code, exitIncomplete, stderr)
	}
	if !strings.Contains(out, "partial") {
		t.Fatalf("partial matrix was not printed:\n%s", out)
	}
	if !strings.Contains(stderr, "1/2 shards") {
		t.Fatalf("stderr does not count the missing shards: %q", stderr)
	}

	// Committing the second shard turns the same invocation into exit 0.
	st, err = store.Open(dir, spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	recs, err = campaign.ExecuteShard(context.Background(), plan[1], campaign.NewMemo())
	if err != nil {
		t.Fatal(err)
	}
	st.Stage(1, recs)
	if _, err := st.CommitNext(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCmd("report", "-dir", root); code != exitOK {
		t.Fatalf("complete report exit = %d, stderr:\n%s", code, stderr)
	}
}

// TestReportMixedAxesMatrix pins the report path on a sweep that mixes every
// axis — widths, ports, transparent mode and a BIST-weighted optimizer point
// — in one campaign: the completeness gate must still drive the exit code
// (4 while shards are missing, 0 once every shard is committed), and the
// finished matrix must read the per-unit axis results into the word,
// transparent, mport and BIST columns instead of dashes.
func TestReportMixedAxesMatrix(t *testing.T) {
	spec := campaign.Spec{
		Name:        "axes-matrix",
		Lists:       []string{"list1"},
		Widths:      []int{1, 4},
		Ports:       []int{1, 2},
		Transparent: []bool{false, true},
		Optimize:    []campaign.OptAxis{{}, {Budget: 150, BISTWeight: 0.5}},
		ShardSize:   8,
	}
	spec = spec.Canonical()
	root := t.TempDir()
	dir := spec.Dir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := campaign.EnsureSpecFile(nil, dir, spec); err != nil {
		t.Fatal(err)
	}
	plan := campaign.Plan(spec)
	if len(plan) != 2 || spec.Units() != 16 {
		t.Fatalf("plan: %d shards, %d units, want 2 and 16", len(plan), spec.Units())
	}

	memo := campaign.NewMemo()
	commit := func(sh campaign.Shard) {
		t.Helper()
		st, err := store.Open(dir, spec.Hash())
		if err != nil {
			t.Fatal(err)
		}
		recs, err := campaign.ExecuteShard(context.Background(), sh, memo)
		if err != nil {
			t.Fatal(err)
		}
		st.Stage(sh.ID, recs)
		if _, err := st.CommitNext(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	commit(plan[0])
	if code, _, stderr := runCmd("report", "-dir", root); code != exitIncomplete {
		t.Fatalf("half-committed mixed-axes report exit = %d, want %d; stderr:\n%s",
			code, exitIncomplete, stderr)
	}

	commit(plan[1])
	code, out, stderr := runCmd("report", "-dir", root)
	if code != exitOK {
		t.Fatalf("complete report exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "16/16 units") {
		t.Fatalf("report does not count 16/16 units:\n%s", out)
	}
	// No unit may have failed: a transparent-ineligible or port-invalid
	// combination would surface in the Error column.
	if strings.Contains(out, "transform") || strings.Contains(out, "error") {
		t.Fatalf("matrix contains unit errors:\n%s", out)
	}
	// Axis columns are populated from the per-unit results, not dashes:
	// the word and transparent columns as detected/faults fractions, the
	// mport column as the lifted single-port coverage of the weak-fault
	// catalog, and the optimizer's BIST-cycle override with its * marker.
	wordFrac := regexp.MustCompile(`\b\d+/384\b`) // width-4 intra-word testable faults
	if !wordFrac.MatchString(out) {
		t.Fatalf("no word-axis fraction in the matrix:\n%s", out)
	}
	if !strings.Contains(out, "/38") {
		t.Fatalf("no mport-axis fraction (weak-fault catalog) in the matrix:\n%s", out)
	}
	if !regexp.MustCompile(`\d+\*`).MatchString(out) {
		t.Fatalf("no BIST-weighted optimizer cycle cell in the matrix:\n%s", out)
	}
	// The frontier table renders the weighted sweep point with its weight.
	if !strings.Contains(out, "frontier") || !strings.Contains(out, "0.5") {
		t.Fatalf("frontier table missing the weighted point:\n%s", out)
	}
	// The records themselves, every axis section included, byte for byte.
	b, err := os.ReadFile(store.DataPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != mixedAxesResultsSHA || len(b) != mixedAxesResultsSize {
		t.Fatalf("results.jsonl = sha256 %x (%d bytes), want %s (%d bytes)",
			sum, len(b), mixedAxesResultsSHA, mixedAxesResultsSize)
	}
}

// The store TestReportMixedAxesMatrix builds, captured when the campaign
// wrote its word and mport sections through types of its own.
const (
	mixedAxesResultsSHA  = "713ec1707a5806da6561a28c8f49577f7fa584fbb2bcb0f698be2e22e85bcbf0"
	mixedAxesResultsSize = 23128
)

func TestReportAmbiguousRootNeedsID(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"alpha", "beta"} {
		spec := writeSpec(t, map[string]any{"name": name, "lists": []string{"list2"}, "sizes": []int{3 + len(name)%2}})
		if code, _, stderr := runCmd("run", "-spec", spec, "-dir", dir, "-quiet"); code != exitOK {
			t.Fatalf("run %s: %s", name, stderr)
		}
	}
	code, _, stderr := runCmd("report", "-dir", dir)
	if code != exitError || !strings.Contains(stderr, "-id") {
		t.Fatalf("ambiguous report: code=%d stderr=%q", code, stderr)
	}
}
