#!/bin/sh
# Race-detector gate for the packages with concurrent hot paths: the
# simulator's fan-out over faults (Schedule.Simulate, Schedule.Checkpoint
# and its resumes, sync.Pool machine reuse), the generator loops driving them,
# the marchd service layer (job engine worker pool, result cache, metrics,
# concurrent HTTP clients), and the campaign engine (shard worker pool,
# generation memo) with its durable store, the one committer that stages
# shards and commits them in plan order for both the engine and the fabric
# coordinator. The chaos-hardening packages ride along: the iofault
# injector (its mutex against concurrent committers), the retry loops, and
# the marchctl client suite (retrying requests against a live flaky
# server). The independent
# verification oracle is included because crosscheck fans both simulators
# out from the same call sites the service and campaign layers use
# concurrently. The bit-parallel lane engine's differential tests (lanes
# against the scalar path, which only internal/sim's own tests can force,
# over the march library and the fuzz seed corpus) run under
# ./internal/sim/..., so the lane kernels and planLanes' scalar-fallback
# handoff are raced here too.
# The march optimizer rides along: its search loop is sequential, but every
# fitness evaluation is a Checkpoint.Covers resume, which fans out over
# goroutines once its work is large enough, and the service's /v1/optimize job runs
# it from the job-engine pool.
# The distributed fabric rides along: its cluster tests run a coordinator
# and several workers as real goroutines over HTTP (lease grants, steals,
# heartbeats, commits through the store) — the most concurrency-dense code
# here.
# The overload layer (DESIGN.md §15) is raced from three sides: the
# admission controller's interleaving test in ./internal/service/, the
# circuit breaker's concurrent-report test in ./internal/retry/, and
# ./cmd/marchload/ driving a live in-process server from many workers.
# The axis engines (DESIGN.md §16) ride along: word/mport evaluation runs
# from campaign shard workers and service jobs concurrently (each call
# parses the catalog's two-port march, mport.March2P, from its constant;
# nothing is generated or shared), and the diagnose package is fanned out
# by /v1/diagnose jobs.
set -eu
cd "$(dirname "$0")/.."
exec go test -race ./internal/sim/... ./internal/core/... ./internal/oracle/... ./internal/optimize/... ./internal/service/... ./internal/campaign/... ./internal/store/... ./internal/iofault/... ./internal/retry/... ./internal/fabric/... ./internal/word/... ./internal/mport/... ./internal/diagnose/... ./cmd/marchctl/ ./cmd/marchload/
