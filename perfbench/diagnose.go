package main

import (
	"fmt"
	"math/rand"
	"time"

	"marchgen/internal/diagnose"
	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// maxRounds bounds an adaptive session, as the service's loop does.
const maxRounds = 8

// diagnoseW runs adaptive localization sessions on the simple static list:
// the seed picks the injected instance and the first march, each round
// localizes over all observations and picks the next march from the
// library. The device's syndrome is simulated outside the timed region.
type diagnoseW struct {
	b      *bench
	faults []linked.Fault
	// placements holds each fault's placements, in the order Localize
	// returns them.
	placements [][][]int
	instances  int // (fault, placement) pairs: the round-0 candidates
	pool       []march.Test
	cfg        sim.Config
	sessions   []session
}

// session is what the record keeps of one localization.
type session struct {
	Phase      int      `json:"phase"`
	Op         int      `json:"op"`
	Target     string   `json:"target"`
	Tests      []string `json:"tests"`
	Candidates []int    `json:"candidates"` // after each round
	Signatures int      `json:"signatures"`
	Localized  bool     `json:"localized"`
	ElapsedMS  float64  `json:"elapsed_ms"`
}

func setupDiagnose(b *bench) (workload, error) {
	d := &diagnoseW{
		b:      b,
		faults: b.list("simple", faultlist.SimpleStatic),
		pool:   march.Lib(),
		cfg:    sim.DefaultConfig(),
	}
	// With no observations every instance is a candidate.
	all, err := diagnose.Localize(d.faults, nil, d.cfg)
	if err != nil {
		return nil, err
	}
	byFault := map[string][][]int{}
	for _, c := range all {
		byFault[c.Fault.ID()] = append(byFault[c.Fault.ID()], c.Placement)
	}
	for _, f := range d.faults {
		d.placements = append(d.placements, byFault[f.ID()])
	}
	d.instances = len(all)
	return d, nil
}

// pick chooses an op's target instance and first march. Session cost
// varies tenfold with the fault and the first march, so runs under
// different seeds must not differ in which pairs they draw: ops come in
// blocks of len(faults), each block localizes every fault once, and a
// fault's first march and placement rotate from block to block by a fixed
// design. The seed orders each block, so runs that complete the same blocks
// do the same work in a different order.
func (d *diagnoseW) pick(seed int64, id opID) (diagnose.Candidate, march.Test) {
	n := len(d.faults)
	block := id.index / n
	k := rand.New(rand.NewSource(mix(seed, id.client, block))).Perm(n)[id.index%n]
	pls := d.placements[k]
	return diagnose.Candidate{Fault: d.faults[k], Placement: pls[(k+block)%len(pls)]}, d.pool[(k+2*block)%len(d.pool)]
}

func (d *diagnoseW) op(id opID) (string, time.Duration, error) {
	tr := d.b.tracer()
	key := id.key()
	target, next := d.pick(d.b.opSeed(id), id)
	s := session{Phase: id.phase, Op: id.index, Target: target.String()}
	var elapsed time.Duration
	var obs []diagnose.Observation
	used := map[string]bool{}
	var cands []diagnose.Candidate
	root := tr.begin("diagnose.session", -1, key)
	defer tr.end(root)
	for round := 0; round < maxRounds; round++ {
		watch := startWatch()
		syn, err := deviceSyndrome(next, target, d.cfg)
		d.b.untimed.Add(int64(watch.elapsed().cpu))
		if err != nil {
			return "", 0, fmt.Errorf("device syndrome: %w", err)
		}
		obs = append(obs, diagnose.Observation{Test: next, Syndrome: syn})
		used[next.Name] = true
		s.Tests = append(s.Tests, next.Name)

		// Localize re-checks every observation: the first against every
		// instance, each later one against the previous round's survivors.
		s.Signatures += d.instances
		for _, c := range s.Candidates {
			s.Signatures += c
		}
		start := time.Now()
		sp := tr.begin("diagnose.localize", root, key)
		cands, err = diagnose.Localize(d.faults, obs, d.cfg)
		tr.end(sp)
		elapsed += time.Since(start)
		if err != nil {
			return "", 0, fmt.Errorf("localize: %w", err)
		}
		s.Candidates = append(s.Candidates, len(cands))
		if len(cands) <= 1 {
			break
		}

		for _, t := range d.pool {
			if !used[t.Name] {
				s.Signatures += len(cands)
			}
		}
		start = time.Now()
		sp = tr.begin("diagnose.next_test", root, key)
		t, ok, err := diagnose.NextTest(cands, d.pool, used, d.cfg)
		tr.end(sp)
		elapsed += time.Since(start)
		if err != nil {
			return "", 0, fmt.Errorf("next test: %w", err)
		}
		if !ok {
			break
		}
		next = t
	}
	s.Localized = len(cands) == 1
	s.ElapsedMS = ms(elapsed)
	d.sessions = append(d.sessions, s)
	for _, c := range cands {
		if c.Key() == target.Key() {
			return "", elapsed, nil
		}
	}
	return "", 0, fmt.Errorf("diagnose: injected %s is not among the %d final candidates", target, len(cands))
}

// deviceSyndrome plays the device under test: it simulates the injected
// instance under the diagnosis convention (all-zero initial state, ⇕ run
// upward) and reports the failing reads.
func deviceSyndrome(t march.Test, target diagnose.Candidate, cfg sim.Config) (diagnose.Syndrome, error) {
	orders := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		orders[i] = e.Order
		if orders[i] == march.Any {
			orders[i] = march.Up
		}
	}
	sc := sim.Scenario{Placement: target.Placement, Init: make([]fp.Value, target.Fault.Cells), Orders: orders}
	trace, err := sim.TraceScenario(t, target.Fault, sc, cfg)
	if err != nil {
		return nil, err
	}
	syn := diagnose.Syndrome{}
	for _, st := range trace.Steps {
		if st.Detected {
			syn[diagnose.ReadID{Element: st.Element, Addr: st.Addr, OpIndex: st.OpIndex}] = true
		}
	}
	return syn, nil
}

func (d *diagnoseW) layers(_ []sample, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	var rounds, round1, sigs, localized []float64
	for _, s := range d.sessions {
		if s.Phase != phaseTraced {
			continue
		}
		rounds = append(rounds, float64(len(s.Tests)))
		round1 = append(round1, float64(s.Candidates[0]))
		sigs = append(sigs, float64(s.Signatures))
		if s.Localized {
			localized = append(localized, 1)
		} else {
			localized = append(localized, 0)
		}
	}
	busyS := (sum(self["diagnose.localize"]) + sum(self["diagnose.next_test"])) / 1000
	return map[string]float64{
		"diagnose.localize_ms":       median(self["diagnose.localize"]),
		"diagnose.next_test_ms":      median(self["diagnose.next_test"]),
		"diagnose.rounds":            mean(rounds),
		"diagnose.candidates_round1": mean(round1),
		"diagnose.signatures_per_s":  ratio(sum(sigs), busyS),
		"diagnose.localized_ratio":   mean(localized),
	}, nil
}

func (d *diagnoseW) details() any {
	sessions := d.sessions
	d.sessions = nil
	return map[string]any{"instances": d.instances, "pool": len(d.pool), "sessions": sessions}
}

func (d *diagnoseW) close() {}
