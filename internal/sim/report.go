package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// Result is the simulation outcome for one fault.
type Result struct {
	Fault    linked.Fault
	Detected bool
	// Witness is an undetected scenario when Detected is false.
	Witness *Scenario
	// Err is set when the fault could not be simulated (e.g. the memory is
	// too small for its cell count).
	Err error
}

// Report aggregates the simulation of a test against a fault list.
type Report struct {
	Test    march.Test
	Results []Result
}

// Total returns the number of faults simulated.
func (r Report) Total() int { return len(r.Results) }

// Detected returns the number of detected faults.
func (r Report) Detected() int {
	n := 0
	for _, res := range r.Results {
		if res.Detected {
			n++
		}
	}
	return n
}

// Coverage returns the detected fraction in percent (100 for full coverage,
// 0 for an empty list).
func (r Report) Coverage() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return 100 * float64(r.Detected()) / float64(r.Total())
}

// Full reports whether every fault was detected. An empty fault list is
// vacuously covered, matching Checkpoint.Covers: both answer "does any
// fault in the list escape the test", and for an empty list none does.
// (Coverage, a ratio, still reports 0 for an empty list.)
func (r Report) Full() bool {
	return r.Detected() == r.Total()
}

// Missed returns the undetected faults.
func (r Report) Missed() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res)
		}
	}
	return out
}

// Err returns the first simulation error, if any.
func (r Report) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// ByKind returns per-kind detected/total counters, with kinds in taxonomy
// order.
func (r Report) ByKind() []KindCoverage {
	idx := map[linked.Kind]int{}
	var out []KindCoverage
	for _, res := range r.Results {
		i, ok := idx[res.Fault.Kind]
		if !ok {
			i = len(out)
			idx[res.Fault.Kind] = i
			out = append(out, KindCoverage{Kind: res.Fault.Kind})
		}
		out[i].Total++
		if res.Detected {
			out[i].Detected++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// KindCoverage is a per-taxonomy-class coverage counter.
type KindCoverage struct {
	Kind     linked.Kind
	Detected int
	Total    int
}

// String renders "LF3 288/288".
func (k KindCoverage) String() string {
	return fmt.Sprintf("%s %d/%d", k.Kind, k.Detected, k.Total)
}

// Summary renders a one-line report: test name, coverage, per-kind counts.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %d/%d detected (%.1f%%)",
		r.Test.Name, r.Test.Complexity(), r.Detected(), r.Total(), r.Coverage())
	if kinds := r.ByKind(); len(kinds) > 1 {
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = k.String()
		}
		b.WriteString(" [" + strings.Join(parts, ", ") + "]")
	}
	return b.String()
}

// Simulate runs the test against every fault in the list, compiling the
// simulation schedule once and fanning out across Config.Workers goroutines.
// Result order matches the fault list. An empty fault list returns an empty
// report without spawning workers.
func Simulate(t march.Test, faults []linked.Fault, cfg Config) Report {
	if len(faults) == 0 {
		return Report{Test: t}
	}
	s, err := NewSchedule(t, cfg)
	if err != nil {
		// Schedule compilation fails for the test as a whole (⇕ expansion
		// cap); surface the error on every fault, as the per-fault path did.
		results := make([]Result, len(faults))
		for i, f := range faults {
			results[i] = Result{Fault: f, Err: err}
		}
		return Report{Test: t, Results: results}
	}
	return s.Simulate(faults)
}

// Simulate runs the schedule's test against every fault in the list, fanning
// out across Config.Workers goroutines with machines drawn from the
// schedule's pool. Result order matches the fault list.
func (s *Schedule) Simulate(faults []linked.Fault) Report {
	if len(faults) == 0 {
		return Report{Test: s.test}
	}
	results := make([]Result, len(faults))
	s.fanOut(s.cfg.workers(), len(faults), func(m *machine, i int) bool {
		results[i] = s.result(m, faults[i])
		return false
	})
	return Report{Test: s.test, Results: results}
}

// fanOut calls fn for the indices below n across up to workers goroutines,
// each with its own machine from the schedule's pool, and returns the lowest
// index at which fn returned true, or n when it never did. Indices are
// claimed in ascending order; once fn has returned true at index i no index
// above i starts, but every index below i still runs, so the result is the
// index a sequential scan stops at, whatever the number of workers. The
// calling goroutine runs index 0 before any other starts, so a stop there
// (a fail-first caller puts its likeliest stop first) costs no goroutine,
// and then works as one of the workers.
func (s *Schedule) fanOut(workers, n int, fn func(m *machine, i int) (stop bool)) int {
	if n == 0 {
		return 0
	}
	m := s.getMachine()
	defer s.putMachine(m)
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if fn(m, i) {
				return i
			}
		}
		return n
	}
	if fn(m, 0) {
		return 0
	}
	// Both counters in one heap object, one allocation per fan-out, but on
	// separate cache lines: every claim writes next, and the workers read
	// lowest before every index.
	var claim struct {
		next   atomic.Int64
		_      [56]byte
		lowest atomic.Int64
	}
	claim.next.Store(1)
	claim.lowest.Store(int64(n))
	work := func(m *machine) {
		for {
			i := claim.next.Add(1) - 1
			if i >= claim.lowest.Load() {
				return
			}
			if fn(m, int(i)) {
				// Lower the bound to i unless a lower index stopped first.
				for low := claim.lowest.Load(); i < low; low = claim.lowest.Load() {
					if claim.lowest.CompareAndSwap(low, i) {
						break
					}
				}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := s.getMachine()
			defer s.putMachine(m)
			work(m)
		}()
	}
	work(m)
	wg.Wait()
	return int(claim.lowest.Load())
}
