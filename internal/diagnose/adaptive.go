package diagnose

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// This file implements the adaptive half of diagnosis, after Wang et al.
// (arXiv:0710.4655): from the syndrome of one executed march test the
// dictionary yields a set of candidate fault instances; when the set is
// ambiguous, the follow-up march is chosen to split the candidates as evenly
// as possible (minimizing the worst-case surviving class), and the loop
// repeats until the candidate set is a singleton or no march in the pool can
// split it further.

// ParseReadID parses the "M<element>#<op>@<addr>" rendering of a ReadID.
// It rejects malformed and out-of-range inputs instead of panicking — the
// syndrome arrives from testers over the wire.
func ParseReadID(s string) (ReadID, error) {
	rest, ok := strings.CutPrefix(s, "M")
	if !ok {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q must start with 'M'", s)
	}
	elemStr, rest, ok := strings.Cut(rest, "#")
	if !ok {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q missing '#'", s)
	}
	opStr, addrStr, ok := strings.Cut(rest, "@")
	if !ok {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q missing '@'", s)
	}
	elem, err := strconv.Atoi(elemStr)
	if err != nil || elem < 0 {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q has invalid element", s)
	}
	op, err := strconv.Atoi(opStr)
	if err != nil || op < 0 {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q has invalid op index", s)
	}
	addr, err := strconv.Atoi(addrStr)
	if err != nil || addr < 0 {
		return ReadID{}, fmt.Errorf("diagnose: read ID %q has invalid address", s)
	}
	return ReadID{Element: elem, Addr: addr, OpIndex: op}, nil
}

// ParseSyndrome parses a list of rendered read IDs into a Syndrome.
// Duplicates collapse (a set is a set); any malformed entry fails the parse.
func ParseSyndrome(ids []string) (Syndrome, error) {
	syn := Syndrome{}
	for _, id := range ids {
		r, err := ParseReadID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		syn[r] = true
	}
	return syn, nil
}

// Observation is one executed march test and the syndrome the tester
// recorded.
type Observation struct {
	Test     march.Test
	Syndrome Syndrome
}

// Candidate is a fault instance — model plus placement — consistent with
// every observation so far. The placement is part of the identity: the
// physical defect sits at fixed addresses, so follow-up tests must reproduce
// the same instance's signature.
type Candidate struct {
	Fault     linked.Fault
	Placement []int
}

// Key returns a stable identity for the instance.
func (c Candidate) Key() string {
	parts := make([]string, 0, len(c.Placement)+1)
	parts = append(parts, c.Fault.ID())
	for _, a := range c.Placement {
		parts = append(parts, strconv.Itoa(a))
	}
	return strings.Join(parts, "|")
}

// String renders "FaultID@2,0".
func (c Candidate) String() string {
	addrs := make([]string, len(c.Placement))
	for i, a := range c.Placement {
		addrs[i] = strconv.Itoa(a)
	}
	return c.Fault.ID() + "@" + strings.Join(addrs, ",")
}

// Localize intersects the observations: a candidate instance survives iff
// its simulated signature matches the recorded syndrome under every observed
// test. With no observations every instance is a candidate. The returned
// slice is sorted by Key for determinism.
func Localize(faults []linked.Fault, obs []Observation, cfg sim.Config) ([]Candidate, error) {
	cands, err := instances(faults, cfg)
	if err != nil {
		return nil, err
	}
	for _, ob := range obs {
		d, err := table(ob.Test, cands, cfg)
		if err != nil {
			return nil, err
		}
		cands = nil
		for _, e := range d.Lookup(ob.Syndrome) {
			cands = append(cands, e.Candidate)
		}
		if len(cands) == 0 {
			break
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Key() < cands[j].Key() })
	return cands, nil
}

// NextTest picks the march from the pool that best splits the candidate
// set: the one minimizing the size of the largest class of candidates
// sharing a signature (the empty syndrome is a class like any other). Ties
// break toward more classes, then shorter tests, then lexicographic name, so
// the choice is deterministic. It returns false when no pool test splits the
// set at all (every test leaves all candidates in one class) — the adaptive
// loop has gone stable.
func NextTest(cands []Candidate, pool []march.Test, exclude map[string]bool, cfg sim.Config) (march.Test, bool, error) {
	if len(cands) <= 1 {
		return march.Test{}, false, nil
	}
	best := march.Test{}
	bestLargest, bestClasses, bestLen := -1, -1, -1
	for _, t := range pool {
		if exclude[t.Name] {
			continue
		}
		d, err := table(t, cands, cfg)
		if err != nil {
			// A pool test that cannot simulate some candidate (e.g. too
			// small a memory) is skipped, not fatal: the pool is advisory.
			continue
		}
		classes := len(d.byKey)
		if classes <= 1 {
			continue // does not split
		}
		largest := 0
		for _, idxs := range d.byKey {
			largest = max(largest, len(idxs))
		}
		better := bestLargest < 0 ||
			largest < bestLargest ||
			largest == bestLargest && classes > bestClasses ||
			largest == bestLargest && classes == bestClasses && t.Length() < bestLen ||
			largest == bestLargest && classes == bestClasses && t.Length() == bestLen && t.Name < best.Name
		if better {
			best, bestLargest, bestClasses, bestLen = t, largest, classes, t.Length()
		}
	}
	if bestLargest < 0 {
		return march.Test{}, false, nil
	}
	return best, true, nil
}

// AdaptiveResult summarizes an adaptive localization session.
type AdaptiveResult struct {
	// Candidates is the final candidate set.
	Candidates []Candidate
	// Rounds is the number of march tests executed (including the first).
	Rounds int
	// Tests names the executed tests in order.
	Tests []string
	// Stable is true when the loop stopped because no pool test could split
	// the remaining candidates (as opposed to reaching a singleton).
	Stable bool
}

// AdaptiveLocalize drives the whole loop against a simulated device under
// test: the target fault instance is "the defect", each chosen march is
// executed by simulation to produce its syndrome, and the loop continues
// until the candidate set is singleton, stable, or maxRounds is exhausted.
// It is the reference driver the service endpoint and marchctl reuse in
// spirit; testers replace the simulated execution with the real device.
func AdaptiveLocalize(target linked.Fault, placement []int, faults []linked.Fault, pool []march.Test, start march.Test, cfg sim.Config, maxRounds int) (AdaptiveResult, error) {
	if maxRounds <= 0 {
		maxRounds = 8
	}
	dut := []Candidate{{Fault: target, Placement: placement}}
	res := AdaptiveResult{}
	used := map[string]bool{}
	var obs []Observation
	next := start
	for round := 0; round < maxRounds; round++ {
		d, err := table(next, dut, cfg)
		if err != nil {
			return res, err
		}
		obs = append(obs, Observation{Test: next, Syndrome: d.Entries[0].Syndrome})
		used[next.Name] = true
		res.Rounds++
		res.Tests = append(res.Tests, next.Name)
		cands, err := Localize(faults, obs, cfg)
		if err != nil {
			return res, err
		}
		res.Candidates = cands
		if len(cands) <= 1 {
			return res, nil
		}
		t, ok, err := NextTest(cands, pool, used, cfg)
		if err != nil {
			return res, err
		}
		if !ok {
			res.Stable = true
			return res, nil
		}
		next = t
	}
	res.Stable = true
	return res, nil
}
