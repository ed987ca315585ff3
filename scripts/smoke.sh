#!/bin/sh
# End-to-end smoke test for marchd and marchcamp: build marchd, start it on
# an ephemeral port, run a generate round-trip (submit, poll, fetch result,
# repeat for a cache hit, assert the latency histogram recorded it) plus a
# campaign round-trip and the read-only endpoints through curl, then SIGTERM
# it and require a clean drain (exit 0). A 3-process cluster section runs a
# distributed campaign (one -coordinator marchd, two -join workers, driven
# by marchctl campaign -cluster) and reports over its merged results.
# Finishes with a marchcamp run + report round-trip over the same engine.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
LOG="$TMP/marchd.log"
BIN="$TMP/marchd"
SRV_PID=""

cleanup() {
	[ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
	echo "smoke: FAIL: $*" >&2
	echo "--- marchd log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

go build -o "$BIN" ./cmd/marchd

"$BIN" -addr 127.0.0.1:0 -data "$TMP/campaigns" 2>"$LOG" &
SRV_PID=$!

# Scrape the resolved port from the startup announcement.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's/.*listening on \(.*\)/\1/p' "$LOG" | head -n1)
	[ -n "$ADDR" ] && break
	kill -0 "$SRV_PID" 2>/dev/null || fail "marchd died during startup"
	sleep 0.1
	i=$((i + 1))
done
[ -n "$ADDR" ] || fail "no listen address announced"
BASE="http://$ADDR"
echo "smoke: marchd up at $BASE"

curl -fsS "$BASE/healthz" | grep -q '"ok"' || fail "healthz"
curl -fsS "$BASE/v1/library" | grep -q 'March SL' || fail "library"
curl -fsS "$BASE/v1/faultlists" | grep -q 'list2' || fail "faultlists"

# Synchronous simulation: March SL fully covers fault list 2.
curl -fsS -X POST "$BASE/v1/simulate" \
	-d '{"march":{"name":"March SL"},"list":"list2"}' \
	| grep -Eq '"coverage_percent": ?100' || fail "simulate coverage"

# Async generation: submit, poll to completion, fetch the result.
JOB=$(curl -fsS -X POST "$BASE/v1/generate" -d '{"list":"list2"}' \
	| sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n1)
[ -n "$JOB" ] || fail "generate returned no job id"
echo "smoke: generation job $JOB submitted"

i=0
STATUS=""
while [ $i -lt 300 ]; do
	STATUS=$(curl -fsS "$BASE/v1/jobs/$JOB" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	case "$STATUS" in
	done) break ;;
	failed | canceled) fail "job ended $STATUS" ;;
	esac
	sleep 0.1
	i=$((i + 1))
done
[ "$STATUS" = "done" ] || fail "job stuck in state '$STATUS'"

curl -fsS "$BASE/v1/jobs/$JOB/result" >"$TMP/gen.json"
grep -Eq '"coverage_percent": ?100' "$TMP/gen.json" \
	|| fail "generated march does not reach full coverage"

# The repeat request must be served from the cache.
HIT=$(curl -fsS -D - -o /dev/null -X POST "$BASE/v1/generate" -d '{"list":"list2"}' \
	| tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$HIT" = "hit" ] || fail "repeat request was not a cache hit (X-Cache: $HIT)"

curl -fsS "$BASE/metrics" | grep -q '"cache_hits": 1' || fail "metrics cache_hits"

# After a completed generation, the latency histogram must have recorded it:
# a non-zero observation count under "generate_latency".
GEN_COUNT=$(curl -fsS "$BASE/metrics" \
	| sed -n '/"generate_latency"/,/}/p' \
	| sed -n 's/.*"count": \([0-9][0-9]*\).*/\1/p' | head -n1)
[ -n "$GEN_COUNT" ] && [ "$GEN_COUNT" -ge 1 ] \
	|| fail "generation latency histogram empty (count: '${GEN_COUNT:-missing}')"
echo "smoke: generate round-trip + cache hit + latency histogram OK"

# Oracle cross-check round-trip: submit a verify job for March SL against
# fault list 2, poll it to completion, and require the two simulators to
# agree on every fault.
VJOB=$(curl -fsS -X POST "$BASE/v1/verify" \
	-d '{"march":{"name":"March SL"},"list":"list2"}' \
	| sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n1)
[ -n "$VJOB" ] || fail "verify returned no job id"
i=0
VSTATUS=""
while [ $i -lt 300 ]; do
	VSTATUS=$(curl -fsS "$BASE/v1/jobs/$VJOB" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	case "$VSTATUS" in
	done) break ;;
	failed | canceled) fail "verify job ended $VSTATUS" ;;
	esac
	sleep 0.1
	i=$((i + 1))
done
[ "$VSTATUS" = "done" ] || fail "verify job stuck in state '$VSTATUS'"
curl -fsS "$BASE/v1/jobs/$VJOB/result" >"$TMP/verify.json"
grep -Eq '"agree": ?true' "$TMP/verify.json" \
	|| fail "oracle cross-check diverged from the production simulator"
echo "smoke: /v1/verify oracle cross-check OK"

# Campaign round-trip over the HTTP API: submit a one-unit sweep, poll to
# completion, fetch its committed results.
CAMP=$(curl -fsS -X POST "$BASE/v1/campaigns" \
	-d '{"name":"smoke","lists":["list2"]}' \
	| sed -n 's/.*"id": "\(c-[^"]*\)".*/\1/p' | head -n1)
[ -n "$CAMP" ] || fail "campaign submit returned no id"
i=0
CSTATUS=""
while [ $i -lt 300 ]; do
	CSTATUS=$(curl -fsS "$BASE/v1/campaigns/$CAMP" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	case "$CSTATUS" in
	done) break ;;
	failed | interrupted) fail "campaign ended $CSTATUS" ;;
	esac
	sleep 0.1
	i=$((i + 1))
done
[ "$CSTATUS" = "done" ] || fail "campaign stuck in state '$CSTATUS'"
curl -fsS "$BASE/v1/campaigns/$CAMP/results" | grep -q '"id": *"u-' || fail "campaign results empty"
curl -fsS "$BASE/metrics" | grep -q '"campaigns_done": 1' || fail "metrics campaigns_done"
echo "smoke: campaign round-trip OK"

# Diagnose round-trip (DESIGN.md §16): a clean MATS+ run over the
# single-cell model space cannot localize anything — the server must
# answer ambiguous with a follow-up march, and the repeat request must be
# a cache hit.
DBODY='{"list":"simple1","observations":[{"march":{"name":"MATS+"},"syndrome":[]}]}'
DJOB=$(curl -fsS -X POST "$BASE/v1/diagnose" -d "$DBODY" \
	| sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n1)
[ -n "$DJOB" ] || fail "diagnose returned no job id"
i=0
DSTATUS=""
while [ $i -lt 300 ]; do
	DSTATUS=$(curl -fsS "$BASE/v1/jobs/$DJOB" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	case "$DSTATUS" in
	done) break ;;
	failed | canceled) fail "diagnose job ended $DSTATUS" ;;
	esac
	sleep 0.1
	i=$((i + 1))
done
[ "$DSTATUS" = "done" ] || fail "diagnose job stuck in state '$DSTATUS'"
curl -fsS "$BASE/v1/jobs/$DJOB/result" >"$TMP/diagnose.json"
grep -q '"status": *"ambiguous"' "$TMP/diagnose.json" || fail "diagnose verdict not ambiguous"
grep -q '"next"' "$TMP/diagnose.json" || fail "diagnose recommended no follow-up march"
DHIT=$(curl -fsS -D - -o /dev/null -X POST "$BASE/v1/diagnose" -d "$DBODY" \
	| tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$DHIT" = "hit" ] || fail "repeat diagnose was not a cache hit (X-Cache: $DHIT)"
echo "smoke: /v1/diagnose round-trip + cache hit OK"

# Axis campaign: a width/ports sweep must run to completion over the HTTP
# API and record per-unit word and mport sections in its results.
ACAMP=$(curl -fsS -X POST "$BASE/v1/campaigns" \
	-d '{"name":"smoke-axes","lists":["list2"],"widths":[1,4],"ports":[1,2]}' \
	| sed -n 's/.*"id": "\(c-[^"]*\)".*/\1/p' | head -n1)
[ -n "$ACAMP" ] || fail "axis campaign submit returned no id"
i=0
ASTATUS=""
while [ $i -lt 600 ]; do
	ASTATUS=$(curl -fsS "$BASE/v1/campaigns/$ACAMP" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	case "$ASTATUS" in
	done) break ;;
	failed | interrupted) fail "axis campaign ended $ASTATUS" ;;
	esac
	sleep 0.1
	i=$((i + 1))
done
[ "$ASTATUS" = "done" ] || fail "axis campaign stuck in state '$ASTATUS'"
curl -fsS "$BASE/v1/campaigns/$ACAMP/results" >"$TMP/axis-results.json"
grep -q '"width": *4' "$TMP/axis-results.json" || fail "axis campaign results lost the width-4 units"
grep -q '"word"' "$TMP/axis-results.json" || fail "axis campaign results carry no word section"
grep -q '"mport"' "$TMP/axis-results.json" || fail "axis campaign results carry no mport section"
echo "smoke: width/ports campaign round-trip OK"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
	[ $i -lt 300 ] || fail "marchd did not exit after SIGTERM"
	sleep 0.1
	i=$((i + 1))
done
grep -q 'exit 0' "$LOG" || fail "marchd did not exit cleanly (want 'exit 0' in log)"
SRV_PID=""
echo "smoke: clean SIGTERM drain"

# Chaos round-trip: a second marchd with -chaos-503 answers the first two
# API requests with 503 + Retry-After: 0; marchctl must retry through them
# and complete a full submit → poll → result round-trip.
CTLBIN="$TMP/marchctl"
go build -o "$CTLBIN" ./cmd/marchctl
CLOG="$TMP/marchd-chaos.log"
"$BIN" -addr 127.0.0.1:0 -data "$TMP/chaos-campaigns" -chaos-503 2 2>"$CLOG" &
CHAOS_PID=$!
trap 'kill -9 "$CHAOS_PID" 2>/dev/null || true; cleanup' EXIT
CADDR=""
i=0
while [ $i -lt 100 ]; do
	CADDR=$(sed -n 's/.*listening on \(.*\)/\1/p' "$CLOG" | head -n1)
	[ -n "$CADDR" ] && break
	kill -0 "$CHAOS_PID" 2>/dev/null || { cat "$CLOG" >&2; fail "chaos marchd died during startup"; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$CADDR" ] || fail "chaos marchd announced no listen address"
"$CTLBIN" -addr "http://$CADDR" -retries 6 -poll 100ms submit -list list2 -wait >"$TMP/ctl.json" \
	|| { cat "$CLOG" >&2; fail "marchctl submit through injected 503s"; }
grep -Eq '"coverage_percent": ?100' "$TMP/ctl.json" \
	|| fail "marchctl result lost full coverage"
INJECTED=$(grep -c 'chaos: injected 503 on' "$CLOG" || true)
[ "$INJECTED" -eq 2 ] || fail "chaos marchd injected $INJECTED 503s, want 2"
kill -TERM "$CHAOS_PID" 2>/dev/null || true
i=0
while kill -0 "$CHAOS_PID" 2>/dev/null; do
	[ $i -lt 300 ] || fail "chaos marchd did not exit after SIGTERM"
	sleep 0.1
	i=$((i + 1))
done
echo "smoke: marchctl round-trip through injected 503s OK"

# Overload round-trip (DESIGN.md §15): a deliberately tiny marchd (one
# worker, one queue slot) is prewarmed with a list2 result, then saturated
# with unique cold generates. The admission controller must answer at
# least one of them 429 with a non-empty Retry-After, and the prewarmed
# cache hit must keep answering 200 throughout — the degrade contract's
# "cheap path stays green".
OLOG="$TMP/marchd-overload.log"
"$BIN" -addr 127.0.0.1:0 -data "$TMP/overload-campaigns" -workers 1 -queue 1 \
	-admit-target 25ms -admit-interval 200ms -drain-timeout 2s 2>"$OLOG" &
OVER_PID=$!
trap 'kill -9 "$OVER_PID" 2>/dev/null || true; cleanup' EXIT
OADDR=""
i=0
while [ $i -lt 100 ]; do
	OADDR=$(sed -n 's/.*listening on \(.*\)/\1/p' "$OLOG" | head -n1)
	[ -n "$OADDR" ] && break
	kill -0 "$OVER_PID" 2>/dev/null || { cat "$OLOG" >&2; fail "overload marchd died during startup"; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$OADDR" ] || fail "overload marchd announced no listen address"
OBASE="http://$OADDR"

# Prewarm: one list2 generation polled to completion becomes the cache hit.
WJOB=$(curl -fsS -X POST "$OBASE/v1/generate" -d '{"list":"list2"}' \
	| sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n1)
[ -n "$WJOB" ] || fail "overload prewarm returned no job id"
i=0
WSTATUS=""
while [ $i -lt 300 ]; do
	WSTATUS=$(curl -fsS "$OBASE/v1/jobs/$WJOB" | sed -n 's/.*"status": "\([^"]*\)".*/\1/p' | head -n1)
	[ "$WSTATUS" = "done" ] && break
	sleep 0.1
	i=$((i + 1))
done
[ "$WSTATUS" = "done" ] || fail "overload prewarm stuck in state '$WSTATUS'"

# Saturate the cold path: unique names make every request a cache miss.
# With one worker and one queue slot the admission controller must start
# shedding; capture the first 429's Retry-After.
RETRY_AFTER=""
i=0
while [ $i -lt 50 ]; do
	HDRS=$(curl -sS -D - -o /dev/null -X POST "$OBASE/v1/generate" \
		-d "{\"list\":\"list1\",\"options\":{\"name\":\"smoke-cold-$i\"}}" | tr -d '\r')
	CODE=$(printf '%s\n' "$HDRS" | sed -n 's/^HTTP[^ ]* \([0-9]*\).*/\1/p' | head -n1)
	if [ "$CODE" = "429" ]; then
		RETRY_AFTER=$(printf '%s\n' "$HDRS" | sed -n 's/^Retry-After: //p' | head -n1)
		break
	fi
	i=$((i + 1))
done
[ -n "$RETRY_AFTER" ] || fail "no 429 with Retry-After while saturating the cold path"
case "$RETRY_AFTER" in
'' | *[!0-9]*) fail "429 Retry-After is not a whole-second count: '$RETRY_AFTER'" ;;
esac

# While the cold path is saturated, the prewarmed cache hit stays green.
OHIT=$(curl -fsS -D - -o /dev/null -X POST "$OBASE/v1/generate" -d '{"list":"list2"}' \
	| tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$OHIT" = "hit" ] || fail "cache hit failed while the cold path was saturated (X-Cache: $OHIT)"
# healthz is never admission-controlled: it must still answer during
# overload, and the metrics snapshot must have recorded the sheds.
curl -fsS "$OBASE/healthz" >/dev/null || fail "healthz unreachable during overload"
curl -fsS "$OBASE/metrics" | grep -q '"sheds_by_class"' || fail "metrics missing sheds_by_class during overload"
kill -TERM "$OVER_PID" 2>/dev/null || true
i=0
while kill -0 "$OVER_PID" 2>/dev/null; do
	[ $i -lt 300 ] || fail "overload marchd did not exit after SIGTERM"
	sleep 0.1
	i=$((i + 1))
done
echo "smoke: 429 + Retry-After under saturation while cache hits stay green OK"

# Cluster round-trip (DESIGN.md §13): a coordinator-mode marchd plus two
# worker marchd instances joined with -join, driven by marchctl campaign
# -cluster. The merged result set must complete, the fabric counters must
# show up in /metrics, and marchcamp report over the coordinator's data
# dir must see a finished campaign (exit 0, not the incomplete exit 4).
FLOG="$TMP/marchd-coord.log"
"$BIN" -addr 127.0.0.1:0 -data "$TMP/fabric-campaigns" -coordinator -fabric-ttl 5s 2>"$FLOG" &
COORD_PID=$!
trap 'kill -9 "$COORD_PID" 2>/dev/null || true; cleanup' EXIT
FADDR=""
i=0
while [ $i -lt 100 ]; do
	FADDR=$(sed -n 's/.*listening on \(.*\)/\1/p' "$FLOG" | head -n1)
	[ -n "$FADDR" ] && break
	kill -0 "$COORD_PID" 2>/dev/null || { cat "$FLOG" >&2; fail "coordinator marchd died during startup"; }
	sleep 0.1
	i=$((i + 1))
done
[ -n "$FADDR" ] || fail "coordinator marchd announced no listen address"
FBASE="http://$FADDR"

W1LOG="$TMP/marchd-worker1.log"
W2LOG="$TMP/marchd-worker2.log"
"$BIN" -addr 127.0.0.1:0 -join "$FBASE" 2>"$W1LOG" &
W1_PID=$!
"$BIN" -addr 127.0.0.1:0 -join "$FBASE" 2>"$W2LOG" &
W2_PID=$!
trap 'kill -9 "$W1_PID" "$W2_PID" "$COORD_PID" 2>/dev/null || true; cleanup' EXIT

cat >"$TMP/cluster.json" <<'EOF'
{"name":"smoke-cluster","lists":["list2"],"orders":["free","up","down"],"sizes":[3,4],"shard_size":1}
EOF
"$CTLBIN" -addr "$FBASE" -poll 100ms -timeout 2m \
	campaign -cluster -spec "$TMP/cluster.json" -wait >"$TMP/cluster-status.json" \
	|| { cat "$FLOG" "$W1LOG" "$W2LOG" >&2; fail "marchctl campaign -cluster"; }
grep -Eq '"done": ?true' "$TMP/cluster-status.json" \
	|| fail "cluster campaign did not report done: $(cat "$TMP/cluster-status.json")"
curl -fsS "$FBASE/metrics" | grep -q '"fabric_joins_total": 2' \
	|| fail "metrics fabric_joins_total (want both workers joined)"
curl -fsS "$FBASE/metrics" | grep -Eq '"fabric_completed_shards_total": ?6' \
	|| fail "metrics fabric_completed_shards_total"

# The fabric run landed in the ordinary campaign store layout, so the
# local report tool closes the loop — and must see a complete sweep.
go build -o "$TMP/marchcamp" ./cmd/marchcamp
"$TMP/marchcamp" report -dir "$TMP/fabric-campaigns" | grep -q 'Generated tests:' \
	|| fail "marchcamp report over the cluster's results"
kill -TERM "$W1_PID" "$W2_PID" "$COORD_PID" 2>/dev/null || true
for PID in "$W1_PID" "$W2_PID" "$COORD_PID"; do
	i=0
	while kill -0 "$PID" 2>/dev/null; do
		[ $i -lt 300 ] || fail "cluster marchd $PID did not exit after SIGTERM"
		sleep 0.1
		i=$((i + 1))
	done
done
echo "smoke: 3-process cluster campaign via marchctl -cluster OK"

# marchcamp CLI: a minimal run + report round-trip over the same engine.
CAMPBIN="$TMP/marchcamp"
go build -o "$CAMPBIN" ./cmd/marchcamp
"$CAMPBIN" example >"$TMP/sweep.json" || fail "marchcamp example"
cat >"$TMP/mini.json" <<'EOF'
{"name":"smoke-mini","lists":["list2"],"orders":["free","up"],"shard_size":1}
EOF
"$CAMPBIN" run -spec "$TMP/mini.json" -dir "$TMP/camp" -quiet \
	| grep -q 'complete: 2 units in 2 shards' || fail "marchcamp run"
"$CAMPBIN" report -dir "$TMP/camp" | grep -q 'Generated tests:' || fail "marchcamp report"
echo "smoke: marchcamp run + report OK"
echo "smoke: PASS"
