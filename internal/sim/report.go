package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// simulation schedule once; the schedule's Simulate fans the faults out when
// the work pays for it. Result order matches the fault list. An empty fault
// list returns an empty report.
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

// Simulate runs the schedule's test against every fault in the list, with
// machines drawn from the schedule's pool, fanning out as fanOut decides
// from the trie's work over the list. Result order matches the fault list.
func (s *Schedule) Simulate(faults []linked.Fault) Report {
	r, _ := s.SimulateContext(context.Background(), faults)
	return r
}

// SimulateContext is Simulate under a context: it checks ctx with
// ContextErr before each fault, and once ctx is done it returns ctx's error
// and no report. fanOut starts no fault above the one that stopped, so the
// work goes on past the deadline by at most one fault per goroutine.
func (s *Schedule) SimulateContext(ctx context.Context, faults []linked.Fault) (Report, error) {
	if len(faults) == 0 {
		return Report{Test: s.test}, nil
	}
	results := make([]Result, len(faults))
	stop := s.fanOut(s.work(faults), len(faults), func(m *machine, i int) bool {
		if ContextErr(ctx) != nil {
			return true
		}
		results[i] = s.result(m, faults[i])
		return false
	})
	if stop < len(faults) {
		return Report{}, ContextErr(ctx)
	}
	return Report{Test: s.test, Results: results}, nil
}

// ContextErr is ctx.Err() at a point where long work can stop. Once ctx's
// deadline has passed it yields until ctx reports it: ctx.Err() turns only
// when the runtime runs the context's timer, and a CPU-bound goroutine lets
// that happen only when it is preempted, about 10 ms late on a busy P.
func ContextErr(ctx context.Context) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		for ctx.Err() == nil {
			runtime.Gosched()
		}
	}
	return ctx.Err()
}

// minFanOutSteps is the least work, in operation steps, that fanOut spreads
// over goroutines: about 0.6 ms of lane simulation at the ~19 ns a step
// takes on a 2.1 GHz Intel Xeon. A goroutine, its wake-up and the woken P's
// spinning cost a smaller call more than they save.
const minFanOutSteps = 1 << 15

// walks estimates how many times simulating f walks a trie on size cells:
// once for a fault canClassCache admits, whose scenarios the lanes run
// together, and once per placement and initial value for any other fault,
// whose scenarios the scalar path runs one by one.
func walks(f linked.Fault, size int) int {
	if canClassCache(f) {
		return 1
	}
	return scenarios(f.Cells, size)
}

// work estimates, in operation steps, what simulating the faults on the
// schedule's test costs.
func (s *Schedule) work(faults []linked.Fault) int {
	n := 0
	for _, f := range faults {
		n += walks(f, s.size)
	}
	return n * s.steps
}

// fanOut calls fn for the indices below n and returns the lowest index at
// which fn returned true, or n when it never did. It alone decides how a
// call runs, from work, the call's estimate in operation steps: below
// minFanOutSteps every index runs in turn on the caller, above it up to
// GOMAXPROCS goroutines share them, each with its own machine from the
// schedule's pool. Indices are claimed in ascending order; once fn has
// returned true at index i no index above i starts, but every index below i
// still runs, so the result is the index a sequential scan stops at,
// whatever the number of goroutines. The caller runs index 0 before any
// other starts, so a stop there (a fail-first caller puts its likeliest
// stop first) costs no goroutine, and then works as one of the goroutines.
func (s *Schedule) fanOut(work, n int, fn func(m *machine, i int) (stop bool)) int {
	if n == 0 {
		return 0
	}
	m := s.getMachine()
	defer s.putMachine(m)
	workers := 1
	if work >= minFanOutSteps {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
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
	run := func(m *machine) {
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
			run(m)
		}()
	}
	run(m)
	wg.Wait()
	return int(claim.lowest.Load())
}
