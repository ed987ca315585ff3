package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestAgreeOnLibraryList(t *testing.T) {
	code, out, errOut := runCmd(t, "-list", "list2", "-n", "5")
	if code != exitAgree {
		t.Fatalf("exit %d, want %d; stderr: %s", code, exitAgree, errOut)
	}
	if !strings.Contains(out, "0 divergences") {
		t.Fatalf("summary missing from output: %q", out)
	}
}

func TestSingleTestAndSpec(t *testing.T) {
	if code, _, errOut := runCmd(t, "-march", "March SS", "-list", "list2"); code != exitAgree {
		t.Fatalf("-march: exit %d; stderr: %s", code, errOut)
	}
	if code, _, errOut := runCmd(t, "-spec", "c(w0) ^(r0,w1) v(r1,w0)", "-list", "simple"); code != exitAgree {
		t.Fatalf("-spec: exit %d; stderr: %s", code, errOut)
	}
}

func TestPropsAndMinimize(t *testing.T) {
	if code, _, errOut := runCmd(t, "-march", "MATS+", "-list", "list2", "-props"); code != exitAgree {
		t.Fatalf("-props: exit %d; stderr: %s", code, errOut)
	}
	if code, out, errOut := runCmd(t, "-list", "list2", "-march", "MATS+", "-minimize"); code != exitAgree {
		t.Fatalf("-minimize: exit %d; stdout: %s stderr: %s", code, out, errOut)
	}
}

// TestAxisCrossChecks pins the -width/-ports differential wall: the word and
// mport verdict paths of a test are cross-checked against the oracle as extra
// pairs, and agreement keeps the zero exit.
func TestAxisCrossChecks(t *testing.T) {
	code, out, errOut := runCmd(t, "-march", "March SS", "-list", "list2", "-width", "4", "-ports", "2")
	if code != exitAgree {
		t.Fatalf("exit %d; stdout: %s stderr: %s", code, out, errOut)
	}
	// One bit-level pair plus the word and mport axis checks.
	if !strings.Contains(out, "3 pairs checked") || !strings.Contains(out, "0 divergences") {
		t.Fatalf("summary does not count the axis pairs:\n%s", out)
	}
}

// TestPortsOverLibrary: -ports 2 over the whole library passes. March G's
// wait operations have no two-port form, so its mport check is skipped by
// name instead of counted as a violation.
func TestPortsOverLibrary(t *testing.T) {
	code, out, errOut := runCmd(t, "-list", "list2", "-ports", "2")
	if code != exitAgree {
		t.Fatalf("exit %d; stdout: %s stderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "0 divergences") || !strings.Contains(out, "SKIP mport March G:") {
		t.Fatalf("want 0 divergences and March G skipped:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-list", "nope"},
		{"-march", "nope"},
		{"-spec", "not a march test"},
		{"-spec", "c(r0,w1)"}, // inconsistent: reads 0 from an unwritten cell, see CheckConsistency
		{"-badflag"},
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args...); code != exitUsage {
			t.Errorf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

func TestSmallerMemoryStillAgrees(t *testing.T) {
	// Size 3 makes three-cell faults unplaceable: both simulators must
	// error, which counts as agreement.
	code, out, errOut := runCmd(t, "-list", "list1", "-march", "March SL", "-size", "3")
	if code != exitAgree {
		t.Fatalf("exit %d; stdout: %s stderr: %s", code, out, errOut)
	}
}

func TestVersionFlag(t *testing.T) {
	code, out, _ := runCmd(t, "-version")
	if code != exitAgree || out == "" {
		t.Fatalf("exit %d, output %q", code, out)
	}
}
