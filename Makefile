GO ?= go

.PHONY: build test vet fmt-check race stress bench bench-sim bench-gen bench-opt opt-test diag-test serve smoke chaos cluster-test fuzz verify-oracle load-test check

build:
	$(GO) build ./...

## test: the unit suites, shuffled so inter-test ordering dependencies
## cannot hide, and uncached so the shuffle actually re-runs; then vet and
## test the benchmark module (perfbench/, its own go.mod replacing marchgen
## with this checkout), so an internal API change that breaks it fails here.
test:
	$(GO) test -shuffle=on -count=1 ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

## fmt-check: fail if any tracked Go file is not gofmt-clean.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

## race: the data-race gate for the concurrent paths (simulator fan-out,
## service layer, campaign engine + durable store).
race:
	./scripts/race.sh

## stress: the interleaving gate — the concurrent-client and cluster tests,
## the queue tests that hold the lone worker while they fill and cancel the
## queue, the job engine's start order (jobs queued behind a held worker
## start in submission order) and its cancel of a queued job, the campaign
## slot (a running campaign holds it, and frees it before its snapshot turns
## terminal), and the simulator fan-out's lowest-index stop (Simulate's results, a
## checkpoint build's error, and the checkpoint's missed sets and first
## misses, from scratch and after an edit, and its budgeted resumes' over-
## budget verdicts, missed sets and first misses on budgets around the miss
## count, must be the sequential scan's at GOMAXPROCS 1, 2, 4 and 8, which
## the tests set themselves on inputs above the fan-out gate), whose
## assertions must hold under any goroutine schedule, repeated 20 times at
## 1, 2 and 4 CPUs; the synchronous endpoints' deadline (a 2 ms X-Deadline
## or a 1 ms sync timeout must stop a size-16 simulate with 504 and free its
## admission slot before the handler returns, and detects must answer 504 to
## a passed deadline) and SimulateContext's (a 2 ms deadline must stop that
## run before a full run's time), which depend on timers and goroutine
## scheduling, repeated 20 times at 1, 2 and 4 CPUs; the generator's
## deadline check (a 1 ms deadline must abort a List #1 generation even on
## one P, where the runtime fires the context's timer late), repeated 20
## times at 1, 2 and 4 CPUs; the campaign engine's cancellation boundary (a
## run canceled at its k-th shard commit must leave exactly k shards
## committed, whichever shards finish first under the scheduler), repeated 20
## times at 1, 2 and 4 CPUs; then the optimizer's search (one winner, move
## trace and evaluation count at GOMAXPROCS 1, 2, 4 and 8), repeated 5 times.
stress:
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestConcurrentClients$$|TestCluster|TestCanceledQueuedJobsFreeTheirSlots$$|TestQueueBackpressure$$|TestSyncDeadline|TestJobEngineStartsInSubmissionOrder$$|TestJobEngineCancelQueued$$|TestCampaignCapacity$$' ./internal/service/ ./internal/fabric/
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestFullCoverageDeterministic$$|TestSimulateParallelDeterministic$$|TestCheckpointFirstError$$|TestCheckpointDeterministic$$|TestSimulateContext$$' ./internal/sim/
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestGenerateContextDeadline$$' ./internal/core/
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestCancelStopsAtCommitBoundary$$' ./internal/campaign/
	$(GO) test -count=5 -cpu 1,2,4 -run 'TestOptimizeDeterministicAcrossProcs$$' ./internal/optimize/

## bench: simulator and generator throughput benchmarks.
bench:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim/ .

## bench-sim: regenerate BENCH_sim.json (compiled-schedule speedup record,
## including the lanes section with the bit-parallel speedup over scalar),
## written by internal/sim's TestBenchRecord.
bench_sim = $(GO) test -count=1 -v -run '^TestBenchRecord$$' ./internal/sim -args -benchrecord $(1)
bench-sim:
	$(call bench_sim,$(CURDIR)/BENCH_sim.json)

## bench-gen: regenerate BENCH_gen.json — the CPU time of the three Table-1
## generation rows (ABL1 timed as a batch) and of one optimizer op (OPT,
## perfbench's optimize op at fixed rng seeds; median and quartiles of 11
## runs, on one P and at GOMAXPROCS) for this checkout next to a base
## commit (BASE, default HEAD), built from git archive and run alternately,
## each row in a process of its own; written by the root package's
## TestBenchGen.
BASE ?= HEAD
bench-gen:
	$(GO) test -count=1 -v -timeout 30m -run '^TestBenchGen$$' . -args -benchgen $(CURDIR)/BENCH_gen.json -benchgen-base $(BASE)

## bench-opt: regenerate BENCH_opt.json — the search-based optimizer run
## against the paper's Table 1 baselines (37n / 35n for List #1, 9n for
## List #2), every winner oracle-certified.
bench-opt:
	$(GO) run ./cmd/experiments -bench-opt BENCH_opt.json

## opt-test: the optimizer smoke gate — a short-budget, fixed-seed search
## must find a full-coverage test no longer than the paper's 9n for List #2,
## certify it through the independent oracle, and reproduce bit-for-bit
## across two same-seed runs; the search's coverage judge (a checkpoint
## resumed with the search's own children) must give every fault its
## from-scratch verdict; the benchmark's two optimize tasks must find their
## pinned winners along their pinned move traces. The marchopt CLI suite
## rides along.
opt-test:
	$(GO) test -count=1 -run 'TestBeatsPaperOnList2|TestDeterministicAcrossRuns|TestWinnerCertifiedAndNeverLonger|TestWinnerAgreesWithOracle|TestCoversMatchesFromScratch|TestOptimizeRunsPinned' ./internal/optimize/
	$(GO) test -count=1 ./cmd/marchopt/

## diag-test: the diagnosis gate — the adaptive loop must localize an
## injected fault end to end both in-process (internal/diagnose) and over
## the HTTP surface (/v1/diagnose), and the parse/localize/next pipeline
## must hold its invariants on the seed corpus of hostile syndromes.
diag-test:
	$(GO) test -count=1 ./internal/diagnose/
	$(GO) test -count=1 -run 'TestDiagnose' ./internal/service/

## serve: run the marchd HTTP service on :8080 (see README quick-start).
serve:
	$(GO) run ./cmd/marchd -addr :8080

## smoke: end-to-end marchd + marchcamp round-trip (build, curl, SIGTERM drain).
smoke:
	./scripts/smoke.sh

## chaos: the fault-injection gate (DESIGN.md §10) — the iofault injector
## suite, the crash-matrix byte-identical-resume sweep over every I/O op,
## the coordinator fault matrix (every store fault inside the fabric's
## commits must leave a readable, duplicate-free prefix that a restarted
## coordinator finishes byte-identically), the torn-tail fuzz seeds, panic
## containment in the job engine and HTTP layer, marchd's bounds on stalled
## and oversized request bodies, and the retrying marchctl client against a
## flaky server.
chaos:
	$(GO) test -count=1 ./internal/iofault/ ./internal/retry/ ./cmd/marchctl/
	$(GO) test -count=1 -run 'TestCrashMatrix|TestFaultMatrix|TestCoordinatorFaultMatrix|TestENOSPC|TestFailedWriteStopsCommits|TestRunContainsPanicking|TestCrashError|FuzzOpenTornTail|TestJobEnginePanicContained|TestRoutePanic|TestEncodeError|TestStalledBodyIsAnswered|TestOversizedBodyIsRefused' \
		./internal/campaign/ ./internal/store/ ./internal/service/ ./internal/fabric/ ./cmd/marchd/

## cluster-test: the distributed-fabric gate (DESIGN.md §13) — in-process
## 1-coordinator/3-worker clusters proving merged results byte-identical
## to a single-node run, including the kill-a-worker chaos case and the
## lease-expiry / work-stealing paths, plus the fabric routes through the
## full marchd handler stack.
cluster-test:
	$(GO) test -count=1 -run 'TestCluster|TestFabric' ./internal/fabric/ ./internal/service/

## fuzz: time-boxed fuzzing of every parser boundary (march notation, FP
## specs, op streams), the store's torn-tail recovery, the fabric's
## segment-merge path (dup/out-of-order/torn segments must never corrupt a
## committed prefix), the diagnosis syndrome pipeline (hostile/partial/
## contradictory syndromes must reject or localize, never panic), and the
## word background set (size, round-trip, bit-pair separation, coverage
## monotonicity), 30s per target, seeded from */testdata/fuzz/.
fuzz:
	$(GO) test -fuzz='^FuzzParseFP$$' -fuzztime 30s ./internal/fp/
	$(GO) test -fuzz='^FuzzParseOps$$' -fuzztime 30s ./internal/fp/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime 30s ./internal/march/
	$(GO) test -fuzz='^FuzzOpenTornTail$$' -fuzztime 30s ./internal/store/
	$(GO) test -fuzz='^FuzzLanesVsScalar$$' -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz='^FuzzSegmentMerge$$' -fuzztime 30s ./internal/fabric/
	$(GO) test -fuzz='^FuzzRetryAfterParse$$' -fuzztime 30s ./cmd/marchctl/
	$(GO) test -fuzz='^FuzzDiagnoseSyndrome$$' -fuzztime 30s ./internal/diagnose/
	$(GO) test -fuzz='^FuzzWordBackgrounds$$' -fuzztime 30s ./internal/word/

## load-test: the overload SLO gate (DESIGN.md §15) — a nominal marchload
## run must finish with zero admission sheds, then a 5x-overload run
## against a deliberately small instance must shed cold generates with
## 429 + Retry-After while the cache-hit class stays >=99% green with its
## p99 within 3x of nominal. The nominal run regenerates BENCH_serve.json
## (serving latency percentiles per class, shed counts,
## allocs-per-cached-hit).
load-test:
	./scripts/load.sh

## verify-oracle: the differential gate (DESIGN.md §11) — cross-check the
## production simulator against the independent reference oracle over the
## whole march library × every fault list plus 1000 seeded random streams,
## with the metamorphic property engine on. Any divergence fails the build.
verify-oracle:
	$(GO) run ./cmd/marchverify -seed 1 -n 1000 -props

## check: the full local CI gate — build, vet, gofmt, tests, race, the
## interleaving stress gate, chaos, the cluster gate, the optimizer smoke
## gate, the diagnosis gate, the oracle cross-check, the simulator
## benchmark record, the overload SLO gate, smoke. The benchmark record and
## the SLO gate run as bench-sim and load-test do, but write their records
## into a temporary directory, so check leaves the committed BENCH_sim.json
## and BENCH_serve.json as they are.
check: build vet fmt-check test race stress chaos cluster-test opt-test diag-test verify-oracle
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(call bench_sim,$$tmp/BENCH_sim.json) && \
		./scripts/load.sh $$tmp/BENCH_serve.json
	$(MAKE) smoke
