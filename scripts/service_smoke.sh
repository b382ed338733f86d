#!/usr/bin/env bash
# Crash-resume smoke test for the aivrild job service.
#
# The in-process test suite proves the resume property with injected
# interruptions (serve_test.go); this script proves it against the real
# binary and a real SIGKILL: start aivrild, submit a job through the
# fault-injecting flaky provider, kill -9 the server mid-run, restart
# it on the same cache directory, and require the job to resume from
# its checkpoint and finish with the exact verdict an uninterrupted
# offline run produces (fault injection wraps the same deterministic
# model, so the verdicts must agree).
#
# Requires: go, curl, jq.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

ADDR="${AIVRILD_ADDR:-127.0.0.1:18467}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

log() { echo "smoke: $*"; }
die() { echo "smoke: FAIL: $*" >&2; exit 1; }

go build -o "$WORK/aivrild" ./cmd/aivrild

PROBLEM=cmp_lt_w4
OFFLINE_SPEC="{\"problem\":\"$PROBLEM\",\"model\":\"claude-3.5-sonnet\",\"language\":\"verilog\"}"
FLAKY_SPEC="{\"problem\":\"$PROBLEM\",\"model\":\"claude-3.5-sonnet\",\"language\":\"verilog\",\"provider\":\"flaky\"}"

wait_healthy() {
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    die "server at $BASE never became healthy"
}

# get_job <id> <jq-expr>
get_job() { curl -fsS "$BASE/jobs/$1" | jq -r "$2"; }

# wait_terminal <id> [ticks] -> echoes the terminal status
wait_terminal() {
    local id="$1" ticks="${2:-400}" st=""
    for _ in $(seq 1 "$ticks"); do
        st="$(get_job "$id" .status)"
        case "$st" in
        completed | failed | canceled | interrupted)
            echo "$st"
            return 0
            ;;
        esac
        sleep 0.1
    done
    die "job $id stuck in $st"
}

stop_server() {
    [ -n "$PID" ] || return 0
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=""
}

# --- Reference: an uninterrupted offline run of the same problem. -----
log "offline reference run"
"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/ref" &
PID=$!
wait_healthy
REF_ID="$(curl -fsS -X POST "$BASE/jobs" -d "$OFFLINE_SPEC" | jq -r .id)"
[ -n "$REF_ID" ] && [ "$REF_ID" != null ] || die "submission returned no job id"
[ "$(wait_terminal "$REF_ID")" = completed ] || die "reference run did not complete"
WANT_VERDICT="$(get_job "$REF_ID" .verdict)"
log "reference verdict: $WANT_VERDICT"
stop_server

# --- Crash run: flaky-provider job, SIGKILL the server mid-job. -------
# The step delay stretches the run to seconds so the kill lands between
# states, after at least one checkpoint is on disk.
log "flaky crash run"
"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/crash" -step-delay 400ms -flaky-seed 1 &
PID=$!
wait_healthy
ID="$(curl -fsS -X POST "$BASE/jobs" -d "$FLAKY_SPEC" | jq -r .id)"
[ -n "$ID" ] && [ "$ID" != null ] || die "flaky submission returned no job id"
CKPTS=0
for _ in $(seq 1 100); do
    CKPTS="$(get_job "$ID" .checkpoints_written)"
    [ "$CKPTS" -ge 1 ] 2>/dev/null && break
    sleep 0.1
done
[ "$CKPTS" -ge 1 ] || die "no checkpoint written before the kill window"
log "SIGKILL after $CKPTS checkpoint(s), state $(get_job "$ID" .state)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# --- Restarts: recovery resumes the job until it completes. -----------
# Each restart rotates the fault seed — process restarts are exactly
# when a real outage profile changes — so a deterministic fault
# sequence cannot pin the job on the same call forever.
STATUS=""
for seed in $(seq 2 10); do
    log "restart (flaky seed $seed)"
    "$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/crash" -flaky-seed "$seed" &
    PID=$!
    wait_healthy
    STATUS="$(wait_terminal "$ID")"
    stop_server
    case "$STATUS" in
    completed) break ;;
    interrupted) continue ;; # transient injected fault; restart resumes
    *) die "flaky job reached $STATUS" ;;
    esac
done
[ "$STATUS" = completed ] || die "flaky job never completed across restarts"

# Inspect the final record through one more server life.
"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/crash" &
PID=$!
wait_healthy
GOT_VERDICT="$(get_job "$ID" .verdict)"
RESUMES="$(get_job "$ID" .resumes)"
REPLAYED="$(get_job "$ID" .states_replayed)"
[ "$GOT_VERDICT" = "$WANT_VERDICT" ] ||
    die "resumed verdict $GOT_VERDICT != offline reference $WANT_VERDICT"
[ "$RESUMES" -ge 1 ] || die "job completed without resuming (resumes=$RESUMES)"
log "resumed (resumes=$RESUMES, states_replayed=$REPLAYED), verdict $GOT_VERDICT"
stop_server

# --- Remote sweep: benchsuite -server through the queue must be -------
# byte-identical to the same sweep run in-process.
log "remote sweep via benchsuite -server"
go build -o "$WORK/benchsuite" ./cmd/benchsuite

"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/sweep-remote" -workers 4 -queue 8 &
PID=$!
wait_healthy
"$WORK/benchsuite" -server "$BASE" -table1 -every 31 \
    -cache-dir "$WORK/sweep-client" -json "$WORK/remote.json" >"$WORK/remote.out"
grep -q "dispatch" "$WORK/remote.out" || die "remote manifest missing dispatch line"
stop_server

"$WORK/benchsuite" -table1 -every 31 -cache-dir "$WORK/sweep-local" \
    -json "$WORK/local.json" >/dev/null
cmp -s "$WORK/remote.json" "$WORK/local.json" ||
    die "remote sweep JSON differs from in-process sweep"
log "remote sweep byte-identical to in-process"

# --- Drain with a live subscriber: SIGTERM must not burn the full -----
# drain timeout just because an SSE client is attached.
log "SIGTERM drain with attached event subscriber"
"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/drain" -step-delay 400ms &
PID=$!
wait_healthy
DRAIN_ID="$(curl -fsS -X POST "$BASE/jobs" -d "$OFFLINE_SPEC" | jq -r .id)"
[ -n "$DRAIN_ID" ] && [ "$DRAIN_ID" != null ] || die "drain submission returned no job id"
curl -fsS -N "$BASE/jobs/$DRAIN_ID/events" >"$WORK/drain-events" 2>/dev/null &
CURL_PID=$!
sleep 0.5 # let the stream attach and the job pass a checkpoint
T0="$(date +%s)"
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
ELAPSED="$(($(date +%s) - T0))"
wait "$CURL_PID" 2>/dev/null || true
# Default -drain-timeout is 30s; a subscriber-pinned drain burns all of
# it. The fixed path releases the stream and exits within a few seconds.
[ "$ELAPSED" -lt 10 ] || die "drain with subscriber took ${ELAPSED}s (subscriber pinned the shutdown)"
log "drained in ${ELAPSED}s with a live subscriber"

# The interrupted job resumes to the reference verdict after restart.
"$WORK/aivrild" -addr "$ADDR" -cache-dir "$WORK/drain" &
PID=$!
wait_healthy
[ "$(wait_terminal "$DRAIN_ID")" = completed ] || die "drained job did not complete after restart"
DRAIN_VERDICT="$(get_job "$DRAIN_ID" .verdict)"
[ "$DRAIN_VERDICT" = "$WANT_VERDICT" ] ||
    die "post-drain verdict $DRAIN_VERDICT != offline reference $WANT_VERDICT"
log "post-drain resume verdict $DRAIN_VERDICT"
stop_server
log "PASS"
