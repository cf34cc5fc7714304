#!/bin/sh
# Integration test for tools/subsim_cli: exercises every subcommand
# end-to-end through the shell interface, including failure paths.
# Usage: cli_test.sh <path-to-subsim_cli>
set -u

CLI="$1"
WORK="$(mktemp -d)"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT
FAILURES=0

check() {
  # check <description> <expected-exit> <command...>
  desc="$1"; expected="$2"; shift 2
  "$@" > "$WORK/out.txt" 2> "$WORK/err.txt"
  actual=$?
  if [ "$actual" -ne "$expected" ]; then
    echo "FAIL: $desc (exit $actual, expected $expected)"
    sed 's/^/    /' "$WORK/err.txt" | head -3
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $desc"
  fi
}

expect_in_output() {
  # expect_in_output <description> <pattern>
  if grep -q "$2" "$WORK/out.txt"; then
    echo "ok: $1"
  else
    echo "FAIL: $1 (pattern '$2' not in output)"
    sed 's/^/    /' "$WORK/out.txt" | head -5
    FAILURES=$((FAILURES + 1))
  fi
}

# --- happy path: generate -> weight -> stats -> run -> calibrate ---
check "generate ba graph" 0 \
  "$CLI" generate --type=ba --nodes=2000 --degree=8 --undirected \
  --seed=5 --out="$WORK/raw.txt"
expect_in_output "generate reports counts" "2000 nodes"

check "weight with wc model" 0 \
  "$CLI" weight --in="$WORK/raw.txt" --model=wc --out="$WORK/wc.txt"

check "stats prints summary" 0 "$CLI" stats --in="$WORK/wc.txt"
expect_in_output "stats shows node count" "n=2000"

check "run hist with evaluation" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=hist --k=5 --eps=0.2 \
  --seed=3 --evaluate=500
expect_in_output "run prints seeds" "seeds:"
expect_in_output "run prints certified bounds" "certified:"
expect_in_output "run prints monte-carlo spread" "monte-carlo spread"

check "run degree heuristic" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=degree-discount --k=5

# `run` keeps every registry algorithm, including the ones the serving
# engine refuses because they keep no deadline.
check "run ssa" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=ssa --k=5 --eps=0.2 --seed=3
expect_in_output "run ssa prints seeds" "seeds:"
check "run celf-mc" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=celf-mc --k=2
expect_in_output "run celf-mc prints seeds" "seeds:"

# --- observability: run --metrics-json golden schema ---
check "run emits metrics json" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=opim-c --k=5 --eps=0.2 \
  --seed=3 --threads=1 --metrics-json="$WORK/metrics.json"
expect_in_output "run reports metrics path" "metrics:"
MJSON="$WORK/metrics.json"
if [ -s "$MJSON" ]; then
  echo "ok: metrics json written"
else
  echo "FAIL: metrics json missing or empty"
  FAILURES=$((FAILURES + 1))
fi

# Top-level schema markers.
for pattern in '"schema_version":1' '"counters":{' '"gauges":{' \
    '"histograms":{' '"rr.set_size":{"count":' '"spans":\[' \
    '"name":"opim_c.run"'; do
  if grep -q "$pattern" "$MJSON"; then
    echo "ok: metrics json has $pattern"
  else
    echo "FAIL: metrics json missing $pattern"
    FAILURES=$((FAILURES + 1))
  fi
done

# Counter keys must match the documented schema exactly (values vary
# with the doubling schedule, so only the keys are golden).
sed -n 's/.*"counters":{\([^}]*\)}.*/\1/p' "$MJSON" | tr ',' '\n' \
  | sed 's/:.*//' | sort > "$WORK/counter_keys.txt"
cat > "$WORK/counter_keys_golden.txt" <<'EOF'
"opim_c.rounds_skipped"
"rr.batch_chunks"
"rr.edges_examined"
"rr.geometric_skips"
"rr.nodes_added"
"rr.prefetch_lines"
"rr.rejection_accepts"
"rr.sentinel_hits"
"rr.sets_generated"
"store.fill_rounds"
"store.sets_generated"
EOF
if diff "$WORK/counter_keys_golden.txt" "$WORK/counter_keys.txt" \
    > "$WORK/keys.diff" 2>&1; then
  echo "ok: metrics counter keys match golden schema"
else
  echo "FAIL: metrics counter keys diverge from golden schema"
  sed 's/^/    /' "$WORK/keys.diff"
  FAILURES=$((FAILURES + 1))
fi

# Value checks with tolerance: every RR set the stores generated is
# counted once, and the certified ratio is a probability.
SETS=$(sed -n 's/.*"rr.sets_generated":\([0-9]*\).*/\1/p' "$MJSON")
STORE_SETS=$(sed -n 's/.*"store.sets_generated":\([0-9]*\).*/\1/p' "$MJSON")
HIST_COUNT=$(sed -n 's/.*"rr.set_size":{"count":\([0-9]*\).*/\1/p' "$MJSON")
if [ -n "$SETS" ] && [ "$SETS" -gt 0 ] && [ "$SETS" = "$STORE_SETS" ] \
    && [ "$SETS" = "$HIST_COUNT" ]; then
  echo "ok: metrics set counts agree ($SETS sets)"
else
  echo "FAIL: metrics set counts inconsistent" \
       "(rr=$SETS store=$STORE_SETS hist=$HIST_COUNT)"
  FAILURES=$((FAILURES + 1))
fi
RATIO=$(sed -n 's/.*"opim_c.approx_ratio":\([0-9.eE+-]*\).*/\1/p' "$MJSON")
if [ -n "$RATIO" ] && \
    awk "BEGIN{exit !($RATIO > 0.0 && $RATIO <= 1.0)}"; then
  echo "ok: certified approx ratio in (0, 1] ($RATIO)"
else
  echo "FAIL: opim_c.approx_ratio missing or out of range ($RATIO)"
  FAILURES=$((FAILURES + 1))
fi

# A metrics file that cannot be written is an error, not a silent success.
if [ -w /dev/full ]; then
  check "run fails when --metrics-json cannot be written" 1 \
    "$CLI" run --in="$WORK/wc.txt" --algo=opim-c --k=2 --eps=0.3 \
    --threads=1 --metrics-json=/dev/full
  if grep -q "IoError" "$WORK/err.txt" && ! grep -q "metrics:" "$WORK/out.txt"
  then
    echo "ok: metrics write failure reported as IoError"
  else
    echo "FAIL: metrics write failure not reported"
    FAILURES=$((FAILURES + 1))
  fi
else
  echo "skip: /dev/full not writable; metrics write-failure check not run"
fi

# The execution knobs select the same seeds; each flag must still parse.
check "run with every execution flag" 0 \
  "$CLI" run --in="$WORK/wc.txt" --algo=opim-c --k=3 --eps=0.3 \
  --generator=vanilla --kernel=scalar --rr-encoding=delta --threads=2
expect_in_output "run with execution flags prints seeds" "seeds:"

check "calibrate uniform p" 0 \
  "$CLI" calibrate --in="$WORK/raw.txt" --model=uniform --target=50 --seed=2
expect_in_output "calibrate reports p" "p = "

check "generate er graph" 0 \
  "$CLI" generate --type=er --nodes=500 --degree=4 --seed=2 \
  --out="$WORK/er.txt"
check "weight uniform with p" 0 \
  "$CLI" weight --in="$WORK/er.txt" --model=uniform --p=0.02 \
  --out="$WORK/er_u.txt"
check "run imm on er graph" 0 \
  "$CLI" run --in="$WORK/er_u.txt" --algo=imm --k=3 --eps=0.25

# --- serving: batch (the offline path) ---
cat > "$WORK/queries.txt" <<'EOF'
# three queries, the third repeats the first so it must hit the cache
graph=wc algo=opim-c k=3 eps=0.3 seed=7
graph=wc algo=opim-c k=5 eps=0.3 seed=7
graph=wc algo=opim-c k=3 eps=0.3 seed=7
EOF
check "batch executes query file" 0 \
  "$CLI" batch --graph=wc="$WORK/wc.txt" --in="$WORK/queries.txt" \
  --workers=2
if [ "$(grep -c '"seeds":\[[0-9]' "$WORK/out.txt")" = "3" ]; then
  echo "ok: batch returns three non-empty seed sets"
else
  echo "FAIL: batch seed sets missing"
  sed 's/^/    /' "$WORK/out.txt" | head -5
  FAILURES=$((FAILURES + 1))
fi
expect_in_output "batch repeat query hits the cache" '"cache_hit":true'

check "batch reads queries from stdin" 0 \
  sh -c "echo 'graph=wc k=2 eps=0.3' | '$CLI' batch --graph=wc='$WORK/wc.txt' --threads=1 --cache-mb=64"
expect_in_output "stdin batch returns seeds" '"seeds":\[[0-9]'

check "batch reports parse errors per line" 0 \
  sh -c "echo 'graph=wc k=oops' | '$CLI' batch --graph=wc='$WORK/wc.txt'"
expect_in_output "bad query line yields error json" '"ok":false'

check "batch refuses an algorithm that keeps no deadline" 0 \
  sh -c "echo 'graph=wc algo=celf-mc k=2' | '$CLI' batch --graph=wc='$WORK/wc.txt'"
expect_in_output "unserved algorithm yields error json" '"ok":false'
expect_in_output "unserved algorithm error names the served ones" \
  'served algorithms: opim-c, hist'

check "batch refuses the removed approx_coverage key" 0 \
  sh -c "echo 'graph=wc k=2 approx_coverage=1' | '$CLI' batch --graph=wc='$WORK/wc.txt'"
expect_in_output "approx_coverage is an unknown query key" \
  "unknown query key 'approx_coverage'"

check "batch refuses imm, which certifies no answer" 0 \
  sh -c "echo 'graph=wc algo=imm k=2' | '$CLI' batch --graph=wc='$WORK/wc.txt'"
expect_in_output "imm yields error json" '"ok":false'

# --- serving: the HTTP front end and the update client ---
# `serve` announces its ephemeral port on stdout; curl drives the routes
# and `subsim_cli update` posts edge batches. SIGTERM must drain and exit 0.
"$CLI" serve --graph=wc="$WORK/wc.txt" --port=0 --http-workers=2 \
  --bind=127.0.0.1 --max-pending=64 --threads=1 --cache-mb=64 \
  > "$WORK/serve_out.txt" 2> "$WORK/serve_err.txt" &
SERVE_PID=$!
PORT=""
tries=0
while [ "$tries" -lt 300 ]; do
  PORT=$(sed -n 's/.*"listening":true,"port":\([0-9]*\).*/\1/p' \
    "$WORK/serve_out.txt")
  if [ -n "$PORT" ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
    break
  fi
  sleep 0.1
  tries=$((tries + 1))
done
if [ -n "$PORT" ]; then
  echo "ok: serve announces its port ($PORT)"
else
  echo "FAIL: serve did not announce a port"
  sed 's/^/    /' "$WORK/serve_err.txt" | head -3
  FAILURES=$((FAILURES + 1))
  PORT=1
fi
URL="http://127.0.0.1:$PORT"

if command -v curl > /dev/null 2>&1; then
  check "serve answers /healthz" 0 curl -sf "$URL/healthz"
  expect_in_output "healthz counts the graph" '"graphs":1'
  check "serve answers /v1/select_seeds" 0 \
    curl -sf -X POST --data-binary 'graph=wc k=2 eps=0.3 seed=4' \
    "$URL/v1/select_seeds"
  expect_in_output "select_seeds returns seeds" '"seeds":\[[0-9]'
  check "serve answers /metricsz" 0 curl -sf "$URL/metricsz"
  for key in serve.shed slo.queue_us_p99 slo.exec_us_p99 http.requests; do
    expect_in_output "metricsz has $key" "\"$key\""
  done
  expect_in_output "metricsz counts the query" '"serve.queries":1'
  expect_in_output "metricsz carries cache stats" '"cache_entries":1'
  expect_in_output "metricsz folds in metrics" '"schema_version":1'
  check "serve refuses imm with HTTP 400" 0 \
    curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary 'graph=wc algo=imm k=2' "$URL/v1/select_seeds"
  expect_in_output "imm answer is HTTP 400" '^400$'
  check "serve answers /metricsz after the refusal" 0 curl -sf "$URL/metricsz"
  expect_in_output "refused imm adds no cache entry" '"cache_entries":1'
else
  echo "skip: curl not found; /healthz, /v1/select_seeds, /metricsz and" \
       "/v1/remove_graph checks not run"
fi

# `update` against the live server: a good batch publishes version 2, a
# stale expect_version is refused (409), and a malformed batch fails in
# the local parse (error on stderr, no response body on stdout).
EDGE=$(awk '!/^[#%]/ { print $1, $2; exit }' "$WORK/wc.txt")
printf 'graph=wc\nweight %s 0.5\n' "$EDGE" > "$WORK/update_good.txt"
printf 'graph=wc expect_version=1\nweight %s 0.25\n' "$EDGE" \
  > "$WORK/update_skew.txt"
printf 'graph=wc\nfrobnicate 0 1\n' > "$WORK/update_bad.txt"
check "update applies a batch" 0 \
  "$CLI" update --port="$PORT" --host=127.0.0.1 --in="$WORK/update_good.txt"
expect_in_output "update publishes version 2" '"version":2'
check "update with expect_version skew fails" 1 \
  "$CLI" update --port="$PORT" --in="$WORK/update_skew.txt"
expect_in_output "skewed update reports the error" '"ok":false'
check "update rejects a malformed batch" 1 \
  "$CLI" update --port="$PORT" --in="$WORK/update_bad.txt"
if grep -q "line 2: unknown op" "$WORK/err.txt" && [ ! -s "$WORK/out.txt" ]
then
  echo "ok: malformed batch fails in the local parse"
else
  echo "FAIL: malformed batch did not fail in the local parse"
  sed 's/^/    /' "$WORK/err.txt" "$WORK/out.txt" | head -5
  FAILURES=$((FAILURES + 1))
fi

if command -v curl > /dev/null 2>&1; then
  check "serve answers /v1/remove_graph" 0 \
    curl -sf -X POST --data-binary 'graph=wc' "$URL/v1/remove_graph"
  expect_in_output "remove_graph drops the repaired entry" \
    '"cache_entries_dropped":1'
  check "healthz after removal" 0 curl -sf "$URL/healthz"
  expect_in_output "healthz counts no graphs" '"graphs":0'
fi

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
serve_exit=$?
SERVE_PID=""
if [ "$serve_exit" -eq 0 ] && grep -q "shutting down" "$WORK/serve_err.txt"
then
  echo "ok: serve drains and exits 0 on SIGTERM"
else
  echo "FAIL: serve exited $serve_exit on SIGTERM"
  sed 's/^/    /' "$WORK/serve_err.txt" | head -3
  FAILURES=$((FAILURES + 1))
fi
check "serve requires at least one graph" 1 "$CLI" serve --port=0

check "batch requires at least one graph" 1 \
  sh -c "echo 'graph=wc k=2' | '$CLI' batch"
check "batch rejects malformed graph spec" 1 \
  sh -c "echo x | '$CLI' batch --graph=justaname"

# --- failure paths ---
check "no arguments shows usage" 2 "$CLI"
check "unknown command shows usage" 2 "$CLI" frobnicate
check "generate requires --out" 1 "$CLI" generate --type=ba --nodes=100
check "unknown algorithm rejected" 1 \
  "$CLI" run --in="$WORK/wc.txt" --algo=bogus
check "deleted tim+ algorithm rejected" 1 \
  "$CLI" run --in="$WORK/wc.txt" --algo=tim+
check "missing file is an error" 1 "$CLI" stats --in=/nonexistent/g.txt
check "malformed flag rejected" 1 "$CLI" stats -in=x
check "bad k rejected" 1 "$CLI" run --in="$WORK/wc.txt" --k=0
check "unknown weight model rejected" 1 \
  "$CLI" weight --in="$WORK/raw.txt" --model=nope --out="$WORK/x.txt"

# Every subcommand rejects a flag it does not read, instead of running with
# the default the flag meant to override.
check "misspelled run flag rejected" 1 \
  "$CLI" run --in="$WORK/wc.txt" --k=2 --epsilon=0.3
if grep -q "unrecognized flag: --epsilon" "$WORK/err.txt" && \
    [ ! -s "$WORK/out.txt" ]; then
  echo "ok: misspelled flag named, nothing run"
else
  echo "FAIL: misspelled flag not reported before running"
  sed 's/^/    /' "$WORK/err.txt" "$WORK/out.txt" | head -5
  FAILURES=$((FAILURES + 1))
fi
check "removed --approx-coverage flag rejected" 1 \
  "$CLI" run --in="$WORK/wc.txt" --k=2 --approx-coverage
check "unknown stats flag rejected" 1 \
  "$CLI" stats --in="$WORK/wc.txt" --no-such-flag=1
check "generate rejects a weight flag" 1 \
  "$CLI" generate --type=ba --nodes=100 --model=wc --out="$WORK/x.txt"
check "serve rejects a misspelled flag before starting" 1 \
  "$CLI" serve --graph=wc="$WORK/wc.txt" --prot=0
check "update rejects an unknown flag" 1 \
  "$CLI" update --port=1 --in="$WORK/update_good.txt" --retries=3

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI checks failed"
  exit 1
fi
echo "all CLI checks passed"
