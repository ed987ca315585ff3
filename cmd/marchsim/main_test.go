package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runCmd drives the command as a test would drive the binary, returning
// exit code and captured output.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitFullCoverage(t *testing.T) {
	// March SL covers all of list 2; the certification gate passes.
	code, out, _ := runCmd("-march", "March SL", "-list", "list2")
	if code != exitFull {
		t.Fatalf("exit = %d, want %d (full coverage)\n%s", code, exitFull, out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("summary missing full coverage: %s", out)
	}
}

func TestExitMissedFaults(t *testing.T) {
	// MATS+ misses static linked faults — the nonzero exit lets CI gates
	// catch certification regressions.
	code, out, _ := runCmd("-march", "MATS+", "-list", "list2", "-missed", "2")
	if code != exitMiss {
		t.Fatalf("exit = %d, want %d (missed faults)", code, exitMiss)
	}
	if !strings.Contains(out, "missed") {
		t.Fatalf("no missed faults printed:\n%s", out)
	}
}

func TestExitMissedFaultsJSON(t *testing.T) {
	code, out, _ := runCmd("-march", "MATS+", "-list", "list2", "-json")
	if code != exitMiss {
		t.Fatalf("exit = %d, want %d", code, exitMiss)
	}
	var doc struct {
		Coverage float64 `json:"coverage_percent"`
		Missed   []any   `json:"missed"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc.Coverage >= 100 || len(doc.Missed) == 0 {
		t.Fatalf("report = %+v", doc)
	}
}

// TestAxisFlags pins the -width/-ports grading lines: March SL keeps full
// intra-word coverage at width 4, and its single-port lift detects none of
// the two-port weak faults (simultaneous conditions need a dedicated march).
func TestAxisFlags(t *testing.T) {
	code, out, errOut := runCmd("-march", "March SL", "-list", "list2", "-width", "4", "-ports", "2")
	if code != exitFull {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "word (w=4, 3 backgrounds): 384/384") {
		t.Fatalf("word grading line missing:\n%s", out)
	}
	if !strings.Contains(out, "mport (2 ports): lifted test detects 0/38") {
		t.Fatalf("mport grading line missing:\n%s", out)
	}
	// Without the flags the lines must not appear.
	if _, out, _ := runCmd("-march", "March SL", "-list", "list2"); strings.Contains(out, "word (") || strings.Contains(out, "mport (") {
		t.Fatalf("default output grew axis lines:\n%s", out)
	}
}

func TestExitUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // neither -march nor -spec
		{"-march", "March NOPE"},             // unknown library test
		{"-spec", "^(r0,w1"},                 // unparsable spec
		{"-spec", "^(r1,w0)"},                // inconsistent: r1 never established
		{"-march", "MATS+", "-list", "nope"}, // unknown fault list
		{"-bogusflag"},                       // flag error
	}
	for _, args := range cases {
		if code, _, _ := runCmd(args...); code != exitUsage {
			t.Errorf("args %v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestListTests(t *testing.T) {
	code, out, _ := runCmd("-tests")
	if code != exitFull {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "March SL") || !strings.Contains(out, "MATS+") {
		t.Fatalf("library listing incomplete:\n%s", out)
	}
}

// TestTraceBytesPinned pins the rendered -trace output byte for byte: the
// SHA-256 of stdout for five (test, list) pairs that cover linked faults
// (March SS × List #1), dynamic faults (March C- × dynamic), wait steps
// (March G × simple), the masked LF1 (March LF1 × List #2) and MATS+'s
// simple misses. A changed digest means users read a different trace:
// re-take it only for a deliberate change to trace semantics or rendering.
func TestTraceBytesPinned(t *testing.T) {
	for _, c := range []struct{ march, list, digest string }{
		{"March SS", "list1", "f4c3f6fade16c7ae990ee6cb4f8640bb9505bf8e073ed89fc26f12435af3397a"},
		{"March C-", "dynamic", "7677bae0c5f73850f8c7a8fa94b2091e23185aae1a251d0238b3cff2589976a1"},
		{"March G", "simple", "3f3d752f37a64454ef889e61ea99ff3743ae7722d5a15c0618058fb2829686c9"},
		{"March LF1", "list2", "37e0598d894b47ca7974dacadff71476d4060786ff5ef043fd999755365a6f81"},
		{"MATS+", "simple", "eb3bd65c09bdb3ab8a3ee6d2dbb0d0ca20412e3ceda9a6edbc0c1bde307b3590"},
	} {
		code, out, errOut := runCmd("-march", c.march, "-list", c.list, "-missed", "1000", "-trace")
		if code != exitMiss {
			t.Fatalf("%s × %s: exit = %d, want %d; stderr: %s", c.march, c.list, code, exitMiss, errOut)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != c.digest {
			t.Errorf("%s × %s: trace output digest %s, want %s", c.march, c.list, got, c.digest)
		}
	}
}
