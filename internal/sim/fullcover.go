package sim

import (
	"sync"

	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// FullCoverage reports whether the test detects every fault in the list,
// stopping at the first miss. It is the hot path of the generation
// algorithm's minimization loop (package core), which only needs a yes/no
// answer per candidate. On a miss, the missed fault is returned.
//
// An empty fault list is vacuously covered (consistent with Report.Full).
// The result is deterministic regardless of Config.Workers: the returned
// miss (or error) is always the one the sequential scan would hit first.
func FullCoverage(t march.Test, faults []linked.Fault, cfg Config) (bool, *linked.Fault, error) {
	if len(faults) == 0 {
		return true, nil, nil
	}
	s, err := NewSchedule(t, cfg)
	if err != nil {
		return false, nil, err
	}
	return s.FullCoverage(faults)
}

// FullCoverage reports whether the schedule's test detects every fault in
// the list, fanning out across Config.Workers goroutines and stopping at the
// first miss or error in fault-list order. The miss is a pointer into
// faults. See the package-level FullCoverage for the semantics.
func (s *Schedule) FullCoverage(faults []linked.Fault) (bool, *linked.Fault, error) {
	var failed struct { // the lowest index that failed to simulate
		sync.Mutex
		i   int
		err error
	}
	failed.i = len(faults)
	i := s.fanOut(s.cfg.workers(), len(faults), func(m *machine, i int) bool {
		det, _, err := s.detects(m, faults[i], false)
		if err != nil {
			failed.Lock()
			if i < failed.i {
				failed.i, failed.err = i, err
			}
			failed.Unlock()
		}
		return err != nil || !det
	})
	switch {
	case i == len(faults):
		return true, nil, nil
	case i == failed.i:
		return false, nil, failed.err
	}
	return false, &faults[i], nil
}
