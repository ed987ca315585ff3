package optimize

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// candidate is a full-coverage march test inside the search, with its
// fitness keys precomputed and the lineage of accepted moves that produced
// it from the seed.
type candidate struct {
	test  march.Test
	len   int
	elems int
	cost  int64   // BIST cycle tie-break (0 when disabled)
	score float64 // weighted length+BIST fitness (0 when BISTWeight is off)
	ascii string
	trace []string
}

// better is the total fitness order: the weighted length+BIST score first
// (inert at the historical 0 when BISTWeight is off), then shorter, then
// fewer elements (a march element is a BIST sequencer state, and
// fragmenting into single-op elements is free under the length metric
// alone), then cheaper in BIST cycles, then lexicographic ASCII rendering.
// The last key makes every comparison deterministic, which run-to-run
// reproducibility depends on.
func (c candidate) better(d candidate) bool {
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
	ctx context.Context
	rng *rand.Rand
	// cp is the coverage judge: a checkpoint of the last candidate that
	// covered the list, whose fault list it reorders fail-first.
	cp     *sim.Checkpoint
	opts   Options
	st     *Stats
	seed   march.Test
	maxLen int             // seed length + slack: growth cap
	seen   map[string]bool // ascii → covers, dedupes evaluation spend
}

// newSearch starts a search from the seed test, judged on cp, a checkpoint
// of the seed.
func newSearch(ctx context.Context, seed march.Test, cp *sim.Checkpoint, opts Options, st *Stats) *search {
	return &search{
		ctx:    ctx,
		rng:    Rng(opts.seed()),
		cp:     cp,
		opts:   opts,
		st:     st,
		seed:   seed,
		maxLen: seed.Length() + opts.lengthSlack(),
		seen:   map[string]bool{},
	}
}

// covers reports whether the candidate fully covers the fault list. It is
// the budgeted fitness evaluation: structural gates (validity, consistency,
// length cap) and cache hits are free; only a simulation spends budget.
// The checkpoint resumes the candidate from the elements it shares with the
// last candidate that covered, and a candidate that covers takes that
// place. On a miss, the missed fault moves to the front of the
// checkpoint's scan order, so structurally similar failing candidates are
// rejected by the first scan step next time (fail-first ordering).
func (s *search) covers(t march.Test) (bool, error) {
	if err := s.ctx.Err(); err != nil {
		return false, err
	}
	if t.Length() > s.maxLen {
		return false, nil
	}
	if t.Validate() != nil || t.CheckConsistency() != nil {
		return false, nil
	}
	key := t.ASCII()
	if full, ok := s.seen[key]; ok {
		return full, nil
	}
	if s.st.Evaluations >= s.opts.budget() {
		return false, errBudget
	}
	s.st.Evaluations++
	full, miss, err := s.cp.Covers(t)
	switch {
	case err != nil:
		// Building the checkpoint simulated every fault, so the error is
		// the candidate's own: a structurally valid test the schedule
		// compiler rejects (the ⇕ expansion cap) is simply not a viable
		// candidate.
		full = false
	case full:
		s.cp.Commit()
	default:
		s.cp.MoveToFront(miss)
	}
	s.seen[key] = full
	return full, nil
}

func (s *search) newCandidate(t march.Test, trace []string) candidate {
	c := candidate{
		test:  t,
		len:   t.Length(),
		elems: len(t.Elems),
		cost:  tieBreakCost(t, s.opts.bistCells()),
		ascii: t.ASCII(),
		trace: trace,
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
	best := s.newCandidate(s.seed, nil)
	s.seen[best.ascii] = true

	const tempFloor = 0.05
	for restart := 0; restart < s.opts.restarts(); restart++ {
		s.st.Restarts = restart + 1
		beam := []candidate{best}
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

		for temp := s.opts.initTemp(); temp > tempFloor; temp *= s.opts.cooling() {
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

// expand spawns MovesPerCandidate children per beam member and returns
// those that cover the list and pass the annealing acceptance rule:
// downhill (not longer) always, uphill with probability exp(-Δlen/T).
func (s *search) expand(beam []candidate, temp float64) ([]candidate, error) {
	var children []candidate
	for bi := range beam {
		parent := beam[bi]
		for m := 0; m < s.opts.movesPerCandidate(); m++ {
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
			full, err := s.covers(child)
			if err != nil {
				return children, err
			}
			if !full {
				continue
			}
			delta := float64(child.Length() - parent.len)
			if delta > 0 && coin >= math.Exp(-delta/temp) {
				continue
			}
			s.st.Accepted++
			trace := append(append([]string(nil), parent.trace...), desc)
			children = append(children, s.newCandidate(child, trace))
		}
	}
	return children, nil
}

// shrink dedupes the pool by rendering and keeps the BeamWidth fittest.
// Sorting is stable and the comparison total, so the survivors are a pure
// function of the pool contents.
func (s *search) shrink(pool []candidate) []candidate {
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
func (s *search) perturb(from candidate) (candidate, bool, error) {
	for attempt := 0; attempt < 3; attempt++ {
		child, desc, ok := mutate(s.rng, from.test)
		if !ok {
			continue
		}
		full, err := s.covers(child)
		if err != nil {
			return candidate{}, false, err
		}
		if full {
			trace := append(append([]string(nil), from.trace...), desc)
			return s.newCandidate(child, trace), true, nil
		}
	}
	return candidate{}, false, nil
}
