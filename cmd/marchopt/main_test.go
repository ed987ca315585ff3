package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestVersion(t *testing.T) {
	code, out, _ := runCmd("-version")
	if code != exitOK || !strings.HasPrefix(out, "marchopt ") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestOptimizeLibrarySeed(t *testing.T) {
	code, out, stderr := runCmd("-list", "list2", "-seed-test", "March ABL1",
		"-budget", "300", "-ascii", "-quiet")
	if code != exitOK {
		t.Fatalf("exit=%d stderr=%q out:\n%s", code, stderr, out)
	}
	for _, want := range []string{
		"seed: March ABL1 (9n)",
		"winner: March OPT (",
		"coverage: 18/18 faults (certified, oracle agreed)",
		"move trace",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutputDeterministic(t *testing.T) {
	args := []string{"-list", "list2", "-seed-test", "March ABL1",
		"-budget", "200", "-seed", "5", "-json"}
	code1, out1, _ := runCmd(args...)
	code2, out2, _ := runCmd(args...)
	if code1 != code2 {
		t.Fatalf("codes differ: %d vs %d", code1, code2)
	}
	var a, b struct {
		Test struct {
			Spec   string `json:"spec"`
			Length int    `json:"length"`
			Origin string `json:"origin"`
			Prov   struct {
				MoveTrace string `json:"move_trace"`
			} `json:"provenance"`
		} `json:"test"`
		Improved bool `json:"improved"`
	}
	if err := json.Unmarshal([]byte(out1), &a); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out1)
	}
	if err := json.Unmarshal([]byte(out2), &b); err != nil {
		t.Fatal(err)
	}
	if a.Test.Spec != b.Test.Spec || a.Test.Prov.MoveTrace != b.Test.Prov.MoveTrace {
		t.Errorf("same-seed runs differ:\n%s\n%s", out1, out2)
	}
	if a.Test.Origin != "optimized" {
		t.Errorf("origin = %q", a.Test.Origin)
	}
	if a.Test.Length > 9 {
		t.Errorf("winner %dn, want ≤ the paper's 9n", a.Test.Length)
	}
}

func TestExplicitSpecSeed(t *testing.T) {
	// A padded (redundant) seed must come back shorter.
	code, out, stderr := runCmd("-list", "list2",
		"-spec", "c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0) c(r0,r0)",
		"-budget", "300", "-quiet")
	if code != exitOK {
		t.Fatalf("exit=%d stderr=%q out:\n%s", code, stderr, out)
	}
	if !strings.Contains(out, "(11n)") {
		t.Errorf("seed complexity missing:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCmd("-list", "nope"); code != exitUsage {
		t.Errorf("unknown list: exit=%d", code)
	}
	if code, _, _ := runCmd("-seed-test", "No Such March"); code != exitUsage {
		t.Errorf("unknown seed test: exit=%d", code)
	}
	if code, _, _ := runCmd("-spec", "c(r9)"); code != exitUsage {
		t.Errorf("bad spec: exit=%d", code)
	}
	if code, _, _ := runCmd("-seed-test", "March ABL1", "-spec", "c(w0)"); code != exitUsage {
		t.Errorf("seed-test+spec: exit=%d", code)
	}
}

// A seed that is already optimal for the search's budget reports
// exitNoImprove, not failure.
func TestNoImprovementExitCode(t *testing.T) {
	// The generator's own list2 result (7n) is already at the frontier this
	// budget can reach; optimizing it again finds nothing shorter.
	code, out, stderr := runCmd("-list", "list2",
		"-spec", "c(w0) ^(r0,r0,w1,w1,r1,r1)", "-budget", "200", "-quiet")
	if code != exitNoImprove {
		t.Fatalf("exit=%d stderr=%q out:\n%s", code, stderr, out)
	}
	if !strings.Contains(out, "no improvement") {
		t.Errorf("output:\n%s", out)
	}
}
