package oracle

import (
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// This file is the differential harness: the only place the oracle touches
// internal/sim, and strictly downstream of both verdicts — it runs the two
// simulators and diffs their flattened outcomes. The oracle's verdict path
// (oracle.go, mealy.go) does not import internal/sim.

// Verdict flattens an oracle Result into the shared comparison form.
func (r Result) Verdict() sim.Verdict {
	v := sim.Verdict{Fault: r.Fault.ID(), Detected: r.Detected}
	if r.Err != nil {
		v.Err = r.Err.Error()
		return v
	}
	if !r.Detected && r.Witness != nil {
		v.Witness = r.Witness.String()
	}
	return v
}

// Verdicts flattens an oracle report, in fault-list order.
func (r Report) Verdicts() []sim.Verdict {
	out := make([]sim.Verdict, len(r.Results))
	for i, res := range r.Results {
		out[i] = res.Verdict()
	}
	return out
}

// ConfigFromSim maps a sim.Config onto the oracle's scenario-space knobs:
// memory size, ⇕ expansion and its cap. The oracle is sequential; sim's
// fan-out, which sim decides from the work, has no counterpart here.
func ConfigFromSim(cfg sim.Config) Config {
	return Config{
		Size:             cfg.Size,
		ExhaustiveOrders: cfg.ExhaustiveOrders,
		MaxAnyElements:   cfg.MaxAnyElements,
	}
}

// CrossCheck replays one (march test, fault list, configuration) triple
// through both simulators and returns every divergence: a detection verdict
// flipped, a fault in one missed-set but not the other, a differing witness
// trace, or one side erroring where the other succeeds. An empty result
// means the two independent implementations agree on the whole list.
func CrossCheck(t march.Test, faults []linked.Fault, cfg sim.Config) []sim.VerdictDiff {
	return CrossCheckReport(sim.Simulate(t, faults, cfg), faults, cfg)
}

// CrossCheckReport is CrossCheck for a caller that holds the production
// simulator's report already: rep must be sim.Simulate of rep.Test over the
// faults under cfg. Only the oracle simulates the test again.
func CrossCheckReport(rep sim.Report, faults []linked.Fault, cfg sim.Config) []sim.VerdictDiff {
	oraRep := Simulate(rep.Test, faults, ConfigFromSim(cfg))
	return sim.DiffVerdicts(rep.Verdicts(), oraRep.Verdicts())
}
