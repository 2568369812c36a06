#!/usr/bin/env bash
# Tier-1 verify plus smoke runs of the perf and robustness paths:
# build, unit/property tests (including the kernel differential
# suite), a tiny kernel ablation to catch perf-path regressions that
# type-check but break at runtime, a fault-injection smoke that
# proves injected crashes are caught at the engine boundary — typed
# failures, never a segfault or a hang (everything runs under
# timeout) — and an online-session smoke that replays a tiny trace
# under every placement policy.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build

# --- static analysis --------------------------------------------------
# dsp_lint (tools/lint) checks the project invariants the compiler
# cannot: overflow discipline, domain-safety of toplevel state, budget
# checkpoints in search loops, the Instr.Sites vocabulary, exception
# swallowing (R1-R5, per-file), and the whole-program typedtree rules
# (R6-R9: lock order, hot-path allocation-freedom, WAL ordering,
# blocking under lock).  Findings fail the build; triage a single rule
# with `dune exec tools/lint/dsp_lint.exe -- --only R3`.
dune build @lint

dune runtest

# --- kernel perf gate -------------------------------------------------
# Runs the kernel-smoke ablation and fails on wall-clock or
# steady-state-allocation regressions against the checked-in
# bench/results/baseline-kernel-smoke.json (see scripts/perf_gate.sh
# for thresholds and how to refresh the baseline).
./scripts/perf_gate.sh

# --- fault-injection smoke -------------------------------------------
# The CI-sized fault matrix: one injected raise/stall/corrupt per
# solver family, each absorbed by the runner.  The harness exits 1 if
# the experiment crashes, which fails this stage.
BENCH_JSON=none DSP_BENCH_RESULTS=none \
  timeout 120 dune exec bench/main.exe -- faults-smoke

# CLI boundary: an injected crash in each solver family must surface
# as a typed failure with exit code 3 — not a crash of the CLI, not a
# hang, not exit 0.
inst=$(mktemp -t faults-smoke.XXXXXX.dsp)
trap 'rm -f "$inst"' EXIT
dune exec bin/dsp_cli.exe -- generate -n 10 --width 20 --seed 3 > "$inst"

expect_injected_failure() {
  local algo=$1 spec=$2
  local status=0
  timeout 60 dune exec bin/dsp_cli.exe -- \
    solve --algo "$algo" --inject "$spec" --timeout-ms 2000 "$inst" \
    >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 3 ]; then
    echo "FAIL: $algo with injected $spec exited $status (want 3)" >&2
    exit 1
  fi
  echo "ok: $algo absorbed injected $spec"
}

expect_injected_failure bfd-height  "segtree.best_start:raise"
expect_injected_failure ff-doubling "budget_fit.first_fit_probes:raise"
expect_injected_failure approx54    "approx54.attempts:raise"
expect_injected_failure exact-bb    "bb.nodes:corrupt:5"
expect_injected_failure pts-duality "segtree.range_add:raise"

# A negative budget is a usage error (cmdliner's exit 124), not an
# uncaught exception (125).
expect_usage_error() {
  local status=0
  timeout 60 dune exec bin/dsp_cli.exe -- "$@" "$inst" >/dev/null 2>&1 \
    || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: dsp $* exited $status (want usage error 124)" >&2
    exit 1
  fi
  echo "ok: dsp $* is a usage error"
}

expect_usage_error solve --timeout-ms=-5
expect_usage_error exact --nodes=-1

# And the fallback chain must absorb the same fault and still answer.
timeout 60 dune exec bin/dsp_cli.exe -- \
  solve --fallback exact-bb,approx54,bfd-height \
  --inject "bb.nodes:raise" --timeout-ms 2000 "$inst" >/dev/null
echo "ok: fallback chain stays total under injection"

# --- online-session smoke --------------------------------------------
# Generate a tiny churn trace, replay it under every policy, and
# require each replay to validate its final packing; then run the
# CI-sized online bench experiment (competitive ratios, latency
# percentiles) end to end.
trc=$(mktemp -t online-smoke.XXXXXX.trace)
trap 'rm -f "$inst" "$trc"' EXIT
dune exec bin/dsp_cli.exe -- trace --kind churn -n 20 --width 24 --seed 5 > "$trc"
for policy in first-fit best-fit migrate; do
  timeout 60 dune exec bin/dsp_cli.exe -- \
    online --trace "$trc" --policy "$policy" --migration-k 2 \
    | grep -q "final packing: valid" \
    || { echo "FAIL: online --policy $policy did not validate" >&2; exit 1; }
  echo "ok: online replay validates under $policy"
done
BENCH_JSON=none DSP_BENCH_RESULTS=none \
  timeout 120 dune exec bench/main.exe -- online-smoke >/dev/null
echo "ok: online-smoke bench experiment completes"

# Wide migrate replay: a churn trace on a 32,768-column strip under
# migrate k=2 must reproduce its pinned migrations and peaks, and its
# repair loop the pinned number of trials.  The golden lines are
# exact outputs of the deterministic replay, so any change to
# best-fit, first-fit or the repair loop that moves a placement shows
# here; so does one that keeps the placements but tries other
# candidates.
wide=$(mktemp -t online-wide.XXXXXX.trace)
trap 'rm -f "$inst" "$trc" "$wide"' EXIT
dune exec bin/dsp_cli.exe -- trace --kind churn -n 400 --width 32768 --seed 7 > "$wide"
wide_out=$(timeout 60 dune exec bin/dsp_cli.exe -- \
  online --trace "$wide" --policy migrate --migration-k 2 --stats)
for line in "migrations: 479" "final peak: 1201" "max peak: 1209" \
            "bfd-height   peak 1167"; do
  printf '%s\n' "$wide_out" | grep -qF "$line" \
    || { echo "FAIL: wide migrate replay lacks '$line':" >&2
         echo "$wide_out" >&2; exit 1; }
done
printf '%s\n' "$wide_out" | grep -qE '^ +session\.migration_trials +2717$' \
  || { echo "FAIL: wide migrate replay lacks 'session.migration_trials 2717':" >&2
       echo "$wide_out" >&2; exit 1; }
# The counters are the session's alone: the offline yardsticks solved
# after the replay (bfd-height, approx54) must not leak into them.
leaked=$(printf '%s\n' "$wide_out" | sed -n '/^counters:/,$p' \
  | grep -E '^ +(approx54|budget_fit)\.' || true)
if [ -n "$leaked" ]; then
  echo "FAIL: wide migrate replay's counters include the offline solves:" >&2
  echo "$leaked" >&2; exit 1
fi
echo "ok: wide migrate replay matches its pinned placements and trials"

# --- service daemon crash-recovery smoke -----------------------------
# The serve path end to end, the hard way: start the daemon on a
# socket with a WAL directory, drive a durable session through the
# retrying client, SIGKILL the daemon mid-life, restart it, and
# require the recovered peak to equal the pre-crash answer.  Also
# checks the typed-error exit code of the client.  Every step runs
# under timeout: a hang is a failure, not a wait.
srv_dir=$(mktemp -d -t serve-smoke.XXXXXX)
daemon_pid=""
cleanup_serve() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -f "$inst" "$trc" "$wide"
  rm -rf "$srv_dir"
}
trap cleanup_serve EXIT
sock="$srv_dir/dsp.sock"
served=./_build/default/bin/dsp_served.exe

start_daemon() {
  "$served" daemon --socket "$sock" --wal-dir "$srv_dir/wal" --jobs 2 \
    2>"$srv_dir/daemon.log" &
  daemon_pid=$!
}
client() {
  timeout 30 "$served" client --socket "$sock" "$@"
}

start_daemon
client '{"op":"open","session":"grid","width":12,"policy":"migrate","k":2}' \
       '{"op":"arrive","session":"grid","w":4,"h":3}' \
       '{"op":"arrive","session":"grid","w":6,"h":2}' \
       '{"op":"arrive","session":"grid","w":3,"h":5}' \
       '{"op":"depart","session":"grid","arrival":1}' >/dev/null
peak_before=$(client '{"op":"peak","session":"grid"}')

# a stale departure is a typed error (client exit 3), not a crash
status=0
client '{"op":"depart","session":"grid","arrival":7}' >/dev/null || status=$?
if [ "$status" -ne 3 ]; then
  echo "FAIL: stale departure exited $status (want typed-error exit 3)" >&2
  exit 1
fi
echo "ok: daemon answers a stale departure with a typed error"

kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

start_daemon
peak_after=$(client '{"op":"peak","session":"grid"}')
grep -q "recovered session grid" "$srv_dir/daemon.log" \
  || { echo "FAIL: daemon did not report recovering the session" >&2; exit 1; }
if [ "$peak_before" != "$peak_after" ]; then
  echo "FAIL: recovered state differs: $peak_before vs $peak_after" >&2
  exit 1
fi
kill "$daemon_pid" 2>/dev/null
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "ok: daemon state survives kill -9 via WAL recovery"

# stdio mode: two solves piped through the daemon on a 1-worker pool
# must come back as two ok lines in request order.  Each reply is
# written once its pool task completes (Server.await); a hang fails.
stdio_out=$(printf '%s\n' \
  '{"id":1,"op":"solve","width":9,"items":[[3,2],[4,1],[2,5]],"fallback":"bfd-height"}' \
  '{"id":2,"op":"solve","width":8,"items":[[4,4],[4,2],[3,3]]}' \
  | timeout 30 "$served" daemon --stdio --jobs 1) \
  || { echo "FAIL: stdio daemon exited non-zero" >&2; exit 1; }
if [ "$(printf '%s\n' "$stdio_out" | grep -c '"ok":true')" -ne 2 ] \
   || ! printf '%s\n' "$stdio_out" | sed -n 1p | grep -q '^{"id":1,"ok":true' \
   || ! printf '%s\n' "$stdio_out" | sed -n 2p | grep -q '^{"id":2,"ok":true'; then
  echo "FAIL: stdio daemon did not answer both solves in order:" >&2
  echo "$stdio_out" >&2
  exit 1
fi
echo "ok: stdio daemon answers pool solves in order"

# Out-of-range daemon numbers are usage errors (exit 2), rejected
# before the worker pool exists, not uncaught exceptions (125).
expect_daemon_usage_error() {
  local status=0
  timeout 30 "$served" daemon --stdio "$@" </dev/null >/dev/null 2>&1 \
    || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: dsp_served daemon $* exited $status (want usage error 2)" >&2
    exit 1
  fi
  echo "ok: dsp_served daemon $* is a usage error"
}

expect_daemon_usage_error --jobs 0
expect_daemon_usage_error --compact-every=-5
expect_daemon_usage_error --retry-after-ms=-1

# and the CI-sized serve bench experiment end to end
BENCH_JSON=none DSP_BENCH_RESULTS=none \
  timeout 120 dune exec bench/main.exe -- serve-smoke >/dev/null
echo "ok: serve-smoke bench experiment completes"

# --- repository benchmark smoke ---------------------------------------
# Every perfbench workload on a tiny input, twice: its correctness
# checks (peak_agree, recover_agree, solve_agree) must pass and its
# exact metrics must repeat.  A library change that breaks what the
# benchmark reads fails here rather than in the benchmark run.
timeout 120 bash perfbench/run.sh --smoke >/dev/null
echo "ok: perfbench smoke passes its checks"

# --- multicore smoke (--jobs 2) --------------------------------------
# Race the fallback chain on a 2-domain pool: must return a validated
# report (exit 0) under one shared deadline, never hang — the losers
# are reeled in by cooperative cancellation.
timeout 60 dune exec bin/dsp_cli.exe -- \
  solve --race --jobs 2 --fallback exact-bb,approx54,bfd-height \
  --timeout-ms 2000 "$inst" | grep -q "^race: winner " \
  || { echo "FAIL: --race --jobs 2 did not report a winner" >&2; exit 1; }
echo "ok: raced fallback chain returns a validated winner (--jobs 2)"

# Parallel B&B kernel: the root-split search on 2 domains must print
# the same optimal peak as the serial exact-bb (exact-bb-par shares
# its node budget across workers, so this also exercises the shared
# atomic accounting).
serial_peak=$(timeout 60 dune exec bin/dsp_cli.exe -- \
  solve --algo exact-bb --timeout-ms 5000 "$inst" | grep '^peak:') \
  || { echo "FAIL: exact-bb smoke failed" >&2; exit 1; }
par_peak=$(timeout 60 dune exec bin/dsp_cli.exe -- \
  solve --algo exact-bb-par --jobs 2 --timeout-ms 5000 "$inst" | grep '^peak:') \
  || { echo "FAIL: exact-bb-par --jobs 2 smoke failed" >&2; exit 1; }
if [ "$serial_peak" != "$par_peak" ]; then
  echo "FAIL: exact-bb-par --jobs 2 ($par_peak) disagrees with exact-bb ($serial_peak)" >&2
  exit 1
fi
echo "ok: exact-bb-par on a 2-domain pool agrees with exact-bb ($par_peak)"

# Serial B&B search order: exact-bb on a fixed perfect-fit instance
# must prove its optimum in exactly the pinned number of nodes.  The
# node count is a deterministic output of the search, so a change to
# its branching, pruning or symmetry rules shows here; a change that
# moves it on purpose updates the line and says why.
perfect=$(mktemp -t exact-pin.XXXXXX.dsp)
trap 'rm -f "$perfect"; cleanup_serve' EXIT
dune exec bin/dsp_cli.exe -- generate --kind perfect -n 20 --width 50 --seed 11 > "$perfect"
exact_out=$(timeout 60 dune exec bin/dsp_cli.exe -- exact "$perfect")
if [ "$exact_out" != "optimal peak: 20 (explored 112751 nodes)" ]; then
  echo "FAIL: dsp exact on perfect n=20 W=50 seed 11 printed:" >&2
  echo "$exact_out" >&2
  exit 1
fi
echo "ok: dsp exact reproduces its pinned node count ($exact_out)"

# And a node cap the search cannot prove the optimum within must come
# back as the typed budget exhaustion, not an error or a packing.
capped_out=$(timeout 60 dune exec bin/dsp_cli.exe -- exact --nodes 1000 "$perfect")
if [ "$capped_out" != "node budget exhausted (limit 1000)" ]; then
  echo "FAIL: dsp exact --nodes 1000 on perfect seed 11 printed:" >&2
  echo "$capped_out" >&2
  exit 1
fi
echo "ok: dsp exact reports a spent node cap ($capped_out)"

# approx54's search: on a fixed correlated instance the (5/4+eps)
# algorithm must reach the pinned peak with exactly the pinned work.
# The counts are deterministic outputs of its guesses, classification,
# rounding and placements, so a change to any of them shows here; a
# change that moves them on purpose updates the lines and says why.
corr=$(mktemp -t approx54-pin.XXXXXX.dsp)
trap 'rm -f "$perfect" "$corr"; cleanup_serve' EXIT
dune exec bin/dsp_cli.exe -- generate --kind correlated -n 70 --width 100 --seed 5 > "$corr"
a54_out=$(timeout 60 dune exec bin/dsp_cli.exe -- solve --algo approx54 --stats "$corr")
for pin in '^peak:[[:space:]]+242$' \
           '^[[:space:]]*approx54\.attempts[[:space:]]+7$' \
           '^[[:space:]]*budget_fit\.best_fit_probes[[:space:]]+1470$' \
           '^[[:space:]]*segtree\.range_add[[:space:]]+4830$' \
           '^[[:space:]]*segtree\.range_max[[:space:]]+48$'; do
  printf '%s\n' "$a54_out" | grep -qE "$pin" \
    || { echo "FAIL: approx54 on correlated n=70 W=100 seed 5 lacks /$pin/:" >&2
         echo "$a54_out" >&2; exit 1; }
done
echo "ok: approx54 reproduces its pinned peak and work counts"
