// Package optimize implements a search-based march-test optimizer that
// attacks Table 1 of the paper from the other side: instead of constructing
// a test (package core), it starts from a known full-coverage test and
// searches the neighborhood of element-level edits for a shorter one.
//
// The search is a beam search over full-coverage candidates with a
// simulated-annealing acceptance rule and restarts (DESIGN.md §14). Moves
// are element-level: insert/delete/replace single operations, delete whole
// elements, flip an element's address order, split an element in two, merge
// adjacent elements, and splice element tails between beam survivors.
// Fitness is full coverage of the target fault list — judged on the
// parent's checkpoint (sim.Checkpoint.Covers), which resumes each child
// from the elements it shares with its parent, rejoins the parent where
// the two end alike, stops at the first miss and scans the faults
// fail-first; every candidate kept carries a fork of it — with test length
// and (optionally) BIST cycle cost as tie-breakers.
//
// The central invariant is certify-before-land: every reported winner is
// re-certified through core.CertifyWithOracle (production simulator at full
// coverage AND bit-for-bit agreement with the independent reference oracle)
// before it is returned or registered in the march library. A candidate that
// only the fast search path believes in never lands.
//
// Determinism: a run is a pure function of (fault list, seed test, Options).
// The whole search derives from one seeded *rand.Rand, the loop is
// sequential, and all orderings are total (length, then BIST cycles, then
// ASCII rendering), so two runs with the same seed are byte-identical —
// including the move-trace hash recorded in the winner's provenance.
package optimize

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"marchgen/internal/bist"
	"marchgen/internal/core"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// The search's fixed shape (DESIGN.md §14), which no caller tunes.
const (
	// movesPerCandidate is how many mutations each beam survivor spawns per
	// iteration.
	movesPerCandidate = 6
	// initTemp is the initial annealing temperature in units of march-test
	// length (a candidate one operation longer than its parent is accepted
	// with probability exp(-1/T)); cooling is its per-iteration decay.
	initTemp = 2.0
	cooling  = 0.95
	// lengthSlack bounds how many operations longer than the seed test a
	// candidate may grow: room to explore, without wasting the budget.
	lengthSlack = 4
)

// Options configures an optimization run. The zero value selects sensible
// defaults for every knob; only the fault list (passed to Run) is required.
type Options struct {
	// Name is the name given to the optimized test ("March OPT" if empty).
	Name string
	// Seed seeds the run's single rng; the default is 1. Two runs with equal
	// Options and fault list produce byte-identical results.
	Seed int64
	// Budget bounds the number of candidate coverage evaluations; the
	// default is 2000. The search stops when the budget is exhausted.
	Budget int
	// BeamWidth is the number of candidates kept per iteration (default 4).
	BeamWidth int
	// Restarts is the number of annealing restarts after the temperature
	// cools out (default 3). Each restart reheats and perturbs the incumbent.
	Restarts int
	// BISTCells, when positive, breaks length ties by the estimated BIST
	// cycle cost on a memory of that many cells (package bist).
	BISTCells int
	// BISTWeight, when positive, promotes BIST cycle cost from tie-breaker
	// to fitness term: candidates are ordered by length + BISTWeight × cycles
	// (on a BISTCells-cell memory; 4 cells when BISTCells is unset) before
	// the structural tie-breaks. Zero keeps the pure-length fitness and the
	// exact historical search trajectory.
	BISTWeight float64
	// SeedTest is the test the search starts from. When nil, Run generates
	// one with core.GenerateContext under Generator. The seed must fully
	// cover the fault list.
	SeedTest *march.Test
	// Generator configures the seed generation when SeedTest is nil.
	Generator core.Options
	// Config is the simulator configuration used for both search-time
	// coverage checks and the final certification; the zero value selects
	// the exhaustive default (4 cells, full ⇕ expansion).
	Config sim.Config
	// OnProgress, when set, is called after every search iteration.
	OnProgress func(Progress)
}

// Progress is a point-in-time snapshot of a running search.
type Progress struct {
	// Evaluations is the number of coverage evaluations spent so far.
	Evaluations int
	// Restart is the current restart index (0-based).
	Restart int
	// BestLength is the length of the best full-coverage candidate so far.
	BestLength int
	// Temperature is the current annealing temperature.
	Temperature float64
}

// Canonical returns the options with every search default made explicit:
// the name, seed, budget, beam width, restarts, the simulator
// configuration (sim.Config.Canonical) and the seed generator's options
// (core.Options.Canonical). BISTCells and BISTWeight stay as given: zero
// turns each off. Canonical is idempotent, and the canonical options run
// the same search as the options they came from. The marchd result cache
// derives its optimize key from them, so a request that omits the knobs
// shares an entry with one that spells out their defaults.
func (o Options) Canonical() Options {
	o.Name = o.name()
	o.Seed = o.seed()
	o.Budget = o.budget()
	o.BeamWidth = o.beamWidth()
	o.Restarts = o.restarts()
	o.Config = o.config().Canonical()
	o.Generator = o.Generator.Canonical()
	return o
}

func (o Options) name() string {
	if o.Name == "" {
		return "March OPT"
	}
	return o.Name
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) budget() int {
	if o.Budget <= 0 {
		return 2000
	}
	return o.Budget
}

func (o Options) beamWidth() int {
	if o.BeamWidth <= 0 {
		return 4
	}
	return o.BeamWidth
}

func (o Options) restarts() int {
	if o.Restarts <= 0 {
		return 3
	}
	return o.Restarts
}

func (o Options) config() sim.Config {
	c := o.Config
	if c.Size <= 0 {
		c = sim.DefaultConfig()
	}
	return c
}

// Stats records what the search did.
type Stats struct {
	// Faults is the size of the target list.
	Faults int
	// SeedLength is the length of the seed test the search started from.
	SeedLength int
	// Evaluations is the number of coverage evaluations spent.
	Evaluations int
	// Accepted counts candidates admitted to the beam (including uphill
	// annealing acceptances).
	Accepted int
	// Restarts is the number of annealing restarts actually performed.
	Restarts int
	// Improved reports whether the winner is strictly shorter than the seed.
	Improved bool
	// Duration is the wall-clock search time.
	Duration time.Duration
}

// Result is an optimization outcome.
type Result struct {
	// Test is the winner: the shortest full-coverage test found (never
	// longer than the seed), certified by core.CertifyWithOracle and stamped
	// with OriginOptimized provenance.
	Test march.Test
	// Seed is the test the search started from.
	Seed march.Test
	// Report is the winner's certification report.
	Report sim.Report
	// Stats describes the run.
	Stats Stats
}

// errBudget aborts the search loop when the evaluation budget runs out.
var errBudget = errors.New("optimize: evaluation budget exhausted")

// Run optimizes a march test against the fault list. See RunContext.
func Run(faults []linked.Fault, opts Options) (Result, error) {
	return RunContext(context.Background(), faults, opts)
}

// RunContext runs the search with cancellation support: the context is
// checked before every candidate evaluation, so a canceled context aborts
// within one coverage check and returns ctx.Err().
func RunContext(ctx context.Context, faults []linked.Fault, opts Options) (Result, error) {
	start := time.Now()
	if len(faults) == 0 {
		return Result{}, fmt.Errorf("optimize: empty fault list")
	}
	cfg := opts.config()

	// Obtain and vet the seed test.
	var seed march.Test
	if opts.SeedTest != nil {
		seed = opts.SeedTest.Clone()
	} else {
		gen, err := core.GenerateContext(ctx, faults, opts.Generator)
		if err != nil {
			return Result{}, fmt.Errorf("optimize: seed generation: %v", err)
		}
		seed = gen.Test
	}
	if err := seed.CheckConsistency(); err != nil {
		return Result{}, fmt.Errorf("optimize: seed test: %v", err)
	}
	// The seed's checkpoint judges the seed's children, and its forks the
	// children of every later candidate; building it checks that the seed
	// covers the list. It keeps its own copy of the fault list, so its
	// fail-first reordering cannot alias the caller's.
	sched, err := sim.NewSchedule(seed, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("optimize: seed test: %v", err)
	}
	cp, err := sched.Checkpoint(faults)
	if err != nil {
		return Result{}, fmt.Errorf("optimize: seed test: %v", err)
	}
	if missed := cp.Missed(); len(missed) > 0 {
		return Result{}, fmt.Errorf("optimize: seed test %q does not cover the fault list (misses %s)",
			seed.Name, missed[0].ID())
	}

	// Search.
	st := &Stats{Faults: len(faults), SeedLength: seed.Length()}
	s := newSearch(ctx, seed, cp, opts, st)
	best, trace, err := s.run()
	if err != nil {
		return Result{}, err
	}

	// Certify-before-land: the winner must pass the independent oracle gate
	// under the exhaustive configuration, whatever the search believed.
	winner := best.Clone()
	winner.Name = opts.name()
	winner.Source = ""
	winner.Reconstructed = false
	report, err := core.CertifyWithOracle(winner, faults, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("optimize: winner failed certification: %v", err)
	}
	winner.Origin = march.OriginOptimized
	winner.Prov = &march.Provenance{
		Seed:       opts.seed(),
		Budget:     opts.budget(),
		SeedTest:   seed.Name,
		SeedLength: seed.Length(),
		MoveTrace:  traceHash(trace),
	}

	st.Improved = winner.Length() < seed.Length()
	st.Duration = time.Since(start)
	return Result{Test: winner, Seed: seed, Report: report, Stats: *st}, nil
}

// traceHash digests the winner's accepted-move lineage: two runs that took
// the same path through the search space hash identically.
func traceHash(trace []string) string {
	h := sha256.Sum256([]byte(strings.Join(trace, "\n")))
	return hex.EncodeToString(h[:8])
}

// Land registers an improved winner in the runtime march library (with its
// provenance), making it visible to march.Lib, the listing tools and
// /v1/library. Winners that merely match their seed's length are not
// landed. Reports whether the test was added (idempotent re-registration
// of the same sequence returns false).
func Land(res Result) bool {
	if !res.Stats.Improved {
		return false
	}
	return march.Register(res.Test)
}

// Rng returns the run's rng for a given seed — exposed so tests can
// reproduce move sequences. All randomness in a run flows from this one
// source; nothing else in the package calls math/rand's global functions.
func Rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// tieBreakCost returns the BIST cycle cost used to break length ties, or 0
// when the tie-breaker is disabled.
func tieBreakCost(t march.Test, cells int) int64 {
	if cells <= 0 {
		return 0
	}
	return bist.Estimate(t, cells, 0).Cycles
}

// bistCells returns the memory size BIST costs are estimated on: BISTCells
// when set, the 4-cell simulator default when only the weighted fitness term
// is active, 0 (cost disabled) otherwise.
func (o Options) bistCells() int {
	if o.BISTCells > 0 {
		return o.BISTCells
	}
	if o.BISTWeight > 0 {
		return 4
	}
	return 0
}
