package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// candidate is a full-coverage march test inside the search, with its
// fitness keys precomputed, the lineage of accepted moves that produced it
// from the seed, and the checkpoint its children are judged on.
type candidate struct {
	test  march.Test
	len   int
	elems int
	cost  int64   // BIST cycle tie-break (0 when disabled)
	score float64 // weighted length+BIST fitness (0 when BISTWeight is off)
	ascii string
	trace []string
	// cp is the candidate's checkpoint: the fork of its parent's that the
	// resume judging it left. A candidate the seen cache admitted has none
	// until it is first expanded; from is then its parent's (checkpoint).
	cp, from *sim.Checkpoint
}

// better is the total fitness order: the weighted length+BIST score first
// (inert at the historical 0 when BISTWeight is off), then shorter, then
// fewer elements (a march element is a BIST sequencer state, and
// fragmenting into single-op elements is free under the length metric
// alone), then cheaper in BIST cycles, then lexicographic ASCII rendering.
// The last key makes every comparison deterministic, which run-to-run
// reproducibility depends on.
func (c *candidate) better(d *candidate) bool {
	if c.score != d.score {
		return c.score < d.score
	}
	if c.len != d.len {
		return c.len < d.len
	}
	if c.elems != d.elems {
		return c.elems < d.elems
	}
	if c.cost != d.cost {
		return c.cost < d.cost
	}
	return c.ascii < d.ascii
}

// search is one optimization run: a beam of full-coverage candidates walked
// by annealed mutation, restarted after each cool-down. All state is
// single-goroutine; determinism comes from the one rng and total orders.
type search struct {
	ctx    context.Context
	rng    *rand.Rand
	opts   Options
	st     *Stats
	seed   *candidate
	maxLen int             // seed length + slack: growth cap
	seen   map[string]bool // ascii → covers, dedupes evaluation spend
}

// newSearch starts a search from the seed test, whose checkpoint cp judges
// its children.
func newSearch(ctx context.Context, seed march.Test, cp *sim.Checkpoint, opts Options, st *Stats) *search {
	s := &search{
		ctx:    ctx,
		rng:    Rng(opts.seed()),
		opts:   opts,
		st:     st,
		maxLen: seed.Length() + lengthSlack,
		seen:   map[string]bool{},
	}
	s.seed = s.newCandidate(seed, nil, cp, nil)
	return s
}

// covers reports whether the child t of a candidate fully covers the fault
// list, judged on the candidate's checkpoint cp. It is the budgeted fitness
// evaluation: structural gates (validity, consistency, length cap) and
// cache hits are free; only a simulation spends budget. The checkpoint
// resumes the child from the elements it shares with the candidate and
// rejoins it where the two end alike. When keep is set and a simulated
// child covers, covers returns the child's checkpoint, forked from cp. On a
// miss, the missed fault moves to the front of cp's scan order, so
// structurally similar failing children are rejected by the first scan
// step next time (fail-first ordering); the checkpoints forked from cp
// later inherit that order.
func (s *search) covers(t march.Test, cp *sim.Checkpoint, keep bool) (bool, *sim.Checkpoint, error) {
	if err := s.ctx.Err(); err != nil {
		return false, nil, err
	}
	if t.Length() > s.maxLen {
		return false, nil, nil
	}
	if t.Validate() != nil || t.CheckConsistency() != nil {
		return false, nil, nil
	}
	key := t.ASCII()
	if full, ok := s.seen[key]; ok {
		return full, nil, nil
	}
	if s.st.Evaluations >= s.opts.budget() {
		return false, nil, errBudget
	}
	s.st.Evaluations++
	full, miss, err := cp.Covers(t)
	var fork *sim.Checkpoint
	switch {
	case err != nil:
		// Building the checkpoint simulated every fault, so the error is
		// the candidate's own: a structurally valid test the schedule
		// compiler rejects (the ⇕ expansion cap) is simply not a viable
		// candidate.
		full = false
	case full && keep:
		fork = cp.Fork()
	case !full:
		cp.MoveToFront(miss)
	}
	s.seen[key] = full
	return full, fork, nil
}

// checkpoint returns the candidate's checkpoint. A candidate the seen cache
// admitted gets it here, the first time it is expanded, by a resume from
// its parent's checkpoint that spends no budget.
func (s *search) checkpoint(c *candidate) (*sim.Checkpoint, error) {
	if c.cp != nil {
		return c.cp, nil
	}
	full, _, err := c.from.Covers(c.test)
	if err != nil {
		return nil, err
	}
	if !full {
		return nil, fmt.Errorf("optimize: %s, admitted as covering, misses a fault", c.ascii)
	}
	c.cp, c.from = c.from.Fork(), nil
	return c.cp, nil
}

// newCandidate returns the candidate of test t with its move lineage and
// either its checkpoint cp or, when cp is nil, its parent's, from.
func (s *search) newCandidate(t march.Test, trace []string, cp, from *sim.Checkpoint) *candidate {
	c := &candidate{
		test:  t,
		len:   t.Length(),
		elems: len(t.Elems),
		cost:  tieBreakCost(t, s.opts.bistCells()),
		ascii: t.ASCII(),
		trace: trace,
		cp:    cp,
	}
	if cp == nil {
		c.from = from
	}
	if w := s.opts.BISTWeight; w > 0 {
		c.score = float64(c.len) + w*float64(c.cost)
	}
	return c
}

// run executes the restarted annealing loop and returns the best
// full-coverage test found together with its move lineage. Budget
// exhaustion ends the search normally; only context cancellation is an
// error.
func (s *search) run() (march.Test, []string, error) {
	// The seed covers the list (RunContext built its checkpoint and found
	// no miss); prime the cache so re-proposing it never spends budget.
	best := s.seed
	s.seen[best.ascii] = true

	const tempFloor = 0.05
	for restart := 0; restart < s.opts.restarts(); restart++ {
		s.st.Restarts = restart + 1
		beam := []*candidate{best}
		if restart > 0 {
			// Reheat from the incumbent, perturbed: a few random mutations
			// that keep coverage, to push the beam off the local minimum.
			if p, ok, err := s.perturb(best); err != nil {
				if err == errBudget {
					return best.test, best.trace, nil
				}
				return march.Test{}, nil, err
			} else if ok {
				beam = append(beam, p)
			}
		}

		for temp := initTemp; temp > tempFloor; temp *= cooling {
			children, err := s.expand(beam, temp)
			if err != nil {
				if err == errBudget {
					if len(children) > 0 {
						beam = s.shrink(append(beam, children...))
						if beam[0].better(best) {
							best = beam[0]
						}
					}
					return best.test, best.trace, nil
				}
				return march.Test{}, nil, err
			}
			beam = s.shrink(append(beam, children...))
			if beam[0].better(best) {
				best = beam[0]
			}
			if s.opts.OnProgress != nil {
				s.opts.OnProgress(Progress{
					Evaluations: s.st.Evaluations,
					Restart:     restart,
					BestLength:  best.len,
					Temperature: temp,
				})
			}
		}
	}
	return best.test, best.trace, nil
}

// expand spawns movesPerCandidate children per beam member and returns
// those that cover the list and pass the annealing acceptance rule:
// downhill (not longer) always, uphill with probability exp(-Δlen/T). Each
// child is judged on its parent's checkpoint.
func (s *search) expand(beam []*candidate, temp float64) ([]*candidate, error) {
	var children []*candidate
	for _, parent := range beam {
		cp, err := s.checkpoint(parent)
		if err != nil {
			return children, err
		}
		for m := 0; m < movesPerCandidate; m++ {
			var (
				child march.Test
				desc  string
				ok    bool
			)
			// Occasionally recombine with another beam survivor instead of
			// mutating — splicing element tails between solutions.
			if len(beam) > 1 && s.rng.Intn(8) == 0 {
				other := beam[s.rng.Intn(len(beam))]
				child, desc, ok = splice(s.rng, parent.test, other.test)
			} else {
				child, desc, ok = mutate(s.rng, parent.test)
			}
			if !ok {
				continue
			}
			// Draw the acceptance coin before evaluation so the rng stream
			// consumed per move is independent of cache state.
			coin := s.rng.Float64()
			delta := float64(child.Length() - parent.len)
			accept := delta <= 0 || coin < math.Exp(-delta/temp)
			full, fork, err := s.covers(child, cp, accept)
			if err != nil {
				return children, err
			}
			if !full || !accept {
				continue
			}
			s.st.Accepted++
			trace := append(append([]string(nil), parent.trace...), desc)
			children = append(children, s.newCandidate(child, trace, fork, cp))
		}
	}
	return children, nil
}

// shrink dedupes the pool by rendering and keeps the BeamWidth fittest.
// Sorting is stable and the comparison total, so the survivors are a pure
// function of the pool contents.
func (s *search) shrink(pool []*candidate) []*candidate {
	uniq := pool[:0]
	taken := map[string]bool{}
	for _, c := range pool {
		if taken[c.ascii] {
			continue
		}
		taken[c.ascii] = true
		uniq = append(uniq, c)
	}
	sort.SliceStable(uniq, func(i, j int) bool { return uniq[i].better(uniq[j]) })
	if len(uniq) > s.opts.beamWidth() {
		uniq = uniq[:s.opts.beamWidth()]
	}
	return uniq
}

// perturb applies up to three random mutations to the incumbent, returning
// the first mutated test that still covers the list.
func (s *search) perturb(from *candidate) (*candidate, bool, error) {
	cp, err := s.checkpoint(from)
	if err != nil {
		return nil, false, err
	}
	for attempt := 0; attempt < 3; attempt++ {
		child, desc, ok := mutate(s.rng, from.test)
		if !ok {
			continue
		}
		full, fork, err := s.covers(child, cp, true)
		if err != nil {
			return nil, false, err
		}
		if full {
			trace := append(append([]string(nil), from.trace...), desc)
			return s.newCandidate(child, trace, fork, cp), true, nil
		}
	}
	return nil, false, nil
}
