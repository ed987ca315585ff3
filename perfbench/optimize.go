package main

import (
	"fmt"
	"math/rand"
	"time"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/optimize"
	"marchgen/internal/sim"
)

// optimizeW runs the search-based optimizer from published tests. One op is
// two runs: March SL on List #1 and March ABL1 on List #2, each with an rng
// seed drawn from the workload seed and the op.
type optimizeW struct {
	b            *bench
	list1, list2 []linked.Fault
	runs         []optimizeRun
}

// optimizeTask is one of an op's two runs.
type optimizeTask struct {
	list   string
	seed   march.Test
	budget int // 0 keeps the optimizer's default
}

var optimizeTasks = []optimizeTask{
	{"list1", march.MarchSL, 1000},
	{"list2", march.MarchABL1, 0},
}

// optimizeRun is what the record keeps of one run, so two commits can be
// checked for identical search paths.
type optimizeRun struct {
	Phase       int    `json:"phase"`
	Op          int    `json:"op"`
	List        string `json:"list"`
	RngSeed     int64  `json:"rng_seed"`
	SeedLength  int    `json:"seed_length"`
	Length      int    `json:"length"`
	MoveTrace   string `json:"move_trace"`
	Evaluations int    `json:"evaluations"`
	Improved    bool   `json:"improved"`
	winner      march.Test
}

func setupOptimize(b *bench) (workload, error) {
	return &optimizeW{
		b:     b,
		list1: b.list("list1", faultlist.List1),
		list2: b.list("list2", faultlist.List2),
	}, nil
}

// opSeeds returns the rng seeds of an op's runs.
func opSeeds(seed int64, id opID) []int64 {
	rng := rand.New(rand.NewSource(mix(seed, id.client, id.index)))
	out := make([]int64, len(optimizeTasks))
	for i := range out {
		out[i] = rng.Int63n(1<<62) + 1
	}
	return out
}

func (o *optimizeW) faults(list string) []linked.Fault {
	if list == "list1" {
		return o.list1
	}
	return o.list2
}

func (o *optimizeW) op(id opID) (string, time.Duration, error) {
	tr := o.b.tracer()
	key := id.key()
	seeds := opSeeds(o.b.opSeed(id), id)
	var elapsed time.Duration
	root := tr.begin("optimize.op", -1, key)
	var runs []optimizeRun
	for i, task := range optimizeTasks {
		seedTest := task.seed
		start := time.Now()
		sp := tr.begin("optimize.run."+task.list, root, key)
		res, err := optimize.Run(o.faults(task.list), optimize.Options{Seed: seeds[i], Budget: task.budget, SeedTest: &seedTest})
		tr.end(sp)
		elapsed += time.Since(start)
		if err != nil {
			tr.end(root)
			return "", 0, fmt.Errorf("optimize %s: %w", task.list, err)
		}
		run := optimizeRun{
			Phase: id.phase, Op: id.index, List: task.list, RngSeed: seeds[i],
			SeedLength: task.seed.Length(), Length: res.Test.Length(),
			Evaluations: res.Stats.Evaluations, Improved: res.Stats.Improved, winner: res.Test,
		}
		if res.Test.Prov != nil {
			run.MoveTrace = res.Test.Prov.MoveTrace
		}
		if run.Length > run.SeedLength {
			tr.end(root)
			return "", 0, fmt.Errorf("optimize %s seed %d: winner %dn is longer than its seed %dn",
				task.list, seeds[i], run.Length, run.SeedLength)
		}
		runs = append(runs, run)
	}
	tr.end(root)
	o.runs = append(o.runs, runs...)
	if tr == nil {
		return "", elapsed, nil
	}
	// Traced runs also time the oracle's certification of each winner,
	// outside the op: the optimizer ran the same check before returning.
	for _, run := range runs {
		sp := tr.begin("oracle.certify."+run.List, -1, key)
		_, err := core.CertifyWithOracle(run.winner, o.faults(run.List), sim.DefaultConfig())
		tr.end(sp)
		if err != nil {
			return "", 0, fmt.Errorf("optimize %s seed %d: winner fails certification: %v", run.List, run.RngSeed, err)
		}
	}
	return "", elapsed, nil
}

func (o *optimizeW) layers(_ []sample, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	out := map[string]float64{}
	var evals, runs, improved, runMS float64
	for _, task := range optimizeTasks {
		out["optimize.run_ms."+task.list] = median(self["optimize.run."+task.list])
		out["oracle.certify_ms."+task.list] = median(self["oracle.certify."+task.list])
		runMS += sum(self["optimize.run."+task.list])
		var e []float64
		for _, r := range o.runs {
			if r.Phase != phaseTraced || r.List != task.list {
				continue
			}
			e = append(e, float64(r.Evaluations))
			runs++
			if r.Improved {
				improved++
			}
		}
		out["optimize.evaluations."+task.list] = mean(e)
		evals += sum(e)
	}
	out["optimize.evals_per_s"] = ratio(evals, runMS/1000)
	out["optimize.improved_ratio"] = ratio(improved, runs)
	return out, nil
}

func (o *optimizeW) details() any {
	runs := o.runs
	o.runs = nil
	return map[string]any{"runs": runs}
}

func (o *optimizeW) close() {}
