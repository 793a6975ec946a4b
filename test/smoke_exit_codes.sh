#!/bin/sh
# Asserts the CLI's documented exit codes (see README "Exit codes"):
#   0  success
#   1  usage or instance-construction error; also a corrupt, truncated, or
#      mismatched --resume snapshot
#   2  failed certificate or convergence verdict
#   3  state space over the eager engine's budget (Space.Too_large) or
#      over what a state encoding can address (Codec.Overflow: eager past
#      2^31 - 1 states, any engine past 2^60);
#      for fuzz: a surviving minimized counterexample
#   4  lazy exploration over budget (Engine.Region_overflow)
#   5  incomplete: a resource budget (--deadline/--budget-states/
#      --budget-bytes) ran out or the run was interrupted by
#      SIGINT/SIGTERM; partial progress is reported and — with
#      --checkpoint-out — a resumable snapshot is written
# Every non-zero exit must also say why on stderr — a silent failure is a
# bug regardless of the code.
# Run from the repo root: sh test/smoke_exit_codes.sh
set -u

CLI="${CLI:-dune exec bin/nonmask_cli.exe --}"
# The signal leg needs a direct child process (no dune wrapper in between),
# so it execs the built binary.
BIN="${BIN:-_build/default/bin/nonmask_cli.exe}"
failed=0
tmp="${TMPDIR:-/tmp}"
stderr_file="$tmp/nonmask_smoke_stderr.$$"
ckpt="$tmp/nonmask_smoke_ckpt.$$"
out_full="$tmp/nonmask_smoke_full.$$"
out_resumed="$tmp/nonmask_smoke_resumed.$$"
nm="$tmp/nonmask_smoke_model.$$"
frontier="$tmp/nonmask_smoke_frontier.$$"
trap 'rm -f "$stderr_file" "$ckpt" "$ckpt.tmp" "$ckpt.trunc" "$ckpt.garbage" "$ckpt.ph" "$out_full" "$out_resumed" "$nm.syntax.nm" "$nm.unknown.nm" "$nm.domain.nm" "$nm.divzero.nm" "$nm.nesting.nm" "$nm.sensor.nm" "$nm.sensor2.nm" "$nm.sensor.fmt1" "$nm.sensor.fmt2" "$frontier"' EXIT

expect() {
  want="$1"
  shift
  $CLI "$@" >/dev/null 2>"$stderr_file"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: nonmask $* -> exit $got, want $want"
    failed=1
  elif [ "$got" -ne 0 ] && ! [ -s "$stderr_file" ]; then
    echo "FAIL: nonmask $* -> exit $got with empty stderr"
    failed=1
  else
    echo "ok:   nonmask $* -> exit $got"
  fi
}

# 0: clean verdicts, certificates, and a storm run
expect 0 check token-ring --nodes 3 -k 3
expect 0 certify token-ring --nodes 3 -k 4 --faults corrupt:k=1
expect 0 storm token-ring --nodes 3 -k 4 --rate 0.1 --trials 50
# 0: the parallel backend and parallel storm trials succeed the same way
expect 0 check token-ring --nodes 3 -k 3 --engine parallel --jobs 2
expect 0 certify token-ring --nodes 3 -k 4 --faults corrupt:k=1 --engine parallel --jobs 2
expect 0 storm token-ring --nodes 3 -k 4 --rate 0.1 --trials 50 --jobs 2
# 0: a short differential fuzz run on a known-clean seed
expect 0 fuzz --seed 42 --count 20
expect 0 fuzz --seed 42 --count 20 --jobs 2
# 1: unknown protocol, bad fault spec
expect 1 check no-such-protocol
# the unknown-protocol message must list the available built-ins — a typo
# should hand the user the correct spelling, not just "unknown"
grep -q 'available:' "$stderr_file" && grep -q 'token-ring' "$stderr_file"
if [ $? -ne 0 ]; then
  echo "FAIL: unknown-protocol stderr does not list available built-ins"
  failed=1
else
  echo "ok:   unknown-protocol stderr lists available built-ins"
fi
expect 1 certify token-ring --nodes 3 -k 4 --faults corrupt:k=zero
# 1: flag validation — unknown engine value, non-positive jobs
expect 1 check token-ring --nodes 3 -k 3 --engine turbo
expect 1 check token-ring --nodes 3 -k 3 --engine parallel --jobs 0
expect 1 check token-ring --nodes 3 -k 3 --jobs -2
expect 1 storm token-ring --nodes 3 -k 4 --jobs many
# 1: built-in sizes outside what the protocol family accepts — a usage
# error naming the flag, on every verb that builds an instance
expect 1 check token-ring --nodes 1 -k 3
expect 1 check token-ring --nodes 3 -k 1
expect 1 certify token-ring --nodes 0
expect 1 check dijkstra --nodes 1
expect 1 show dijkstra -k 1
expect 1 check naive-ring --nodes 1
expect 1 simulate naive-ring --nodes 1
expect 1 check diffusing --size 0
expect 1 storm diffusing --size 0
expect 1 check lowatomic --size 0
expect 1 check atomic --size 0
expect 1 check reset --size 0
expect 1 check spanning-tree --size 0
expect 1 check spanning-tree --tree cycle --size 2
grep -q -- '--size must be at least 3' "$stderr_file"
if [ $? -ne 0 ]; then
  echo "FAIL: an out-of-range size does not name its flag and range"
  failed=1
else
  echo "ok:   out-of-range size names its flag and range"
fi
# 1: a grid spanning tree needs a square size; the error names the
# nearest squares instead of building a smaller grid
expect 1 show spanning-tree --tree grid --size 5
expect 1 check spanning-tree --tree grid --size 5
expect 1 certify spanning-tree --tree grid --size 7
grep -q -- '--size must be a square of at least 4 with --tree grid (got 7; nearest: 4 or 9)' "$stderr_file"
if [ $? -ne 0 ]; then
  echo "FAIL: a non-square grid size does not name its flag and the nearest squares"
  failed=1
else
  echo "ok:   non-square grid size names its flag and the nearest squares"
fi
expect 0 show spanning-tree --tree grid --size 9
# 1: storm/simulate option ranges — the Sim.Storm rules serve applies to
# its trials/rate/max_steps options (trials >= 0, 0 <= rate <= 1 and not
# NaN, max_steps > 0), plus simulate's non-negative --faults K
expect 1 storm token-ring --nodes 4 -k 5 --trials=-3
expect 1 storm examples/models/xyz.nm --trials=-1
expect 1 simulate token-ring --nodes 4 -k 5 --trials 3 --faults=-2
expect 1 simulate token-ring --nodes 4 -k 5 --trials=-3
expect 1 storm token-ring --nodes 4 -k 5 --rate 5
expect 1 storm token-ring --nodes 4 -k 5 --rate=-1
expect 1 storm token-ring --nodes 4 -k 5 --rate nan
expect 1 storm token-ring --nodes 4 -k 5 --max-steps 0
# 1: fuzz flag validation — generators need at least two variables, and a
# negative trial count is meaningless
expect 1 fuzz --seed 42 --count 10 --max-vars 1
expect 1 fuzz --seed 42 --count -5
# 1: observability output files are opened up front — an unwritable path
# fails fast instead of losing the trace at the end of a long run
expect 1 check token-ring --nodes 3 -k 3 --trace-out /nonexistent-dir/trace.jsonl
expect 1 storm token-ring --nodes 3 -k 4 --trials 10 --metrics-out /nonexistent-dir/metrics.json
expect 1 fuzz --seed 42 --count 5 --trace-out /nonexistent-dir/trace.jsonl
# 2: failed verdict / certificate
expect 2 check xyz-bad
expect 2 certify xyz-bad
expect 2 certify xyz-bad --engine parallel --jobs 2
expect 2 certify naive-ring --nodes 3 --faults corrupt:k=1
# 2: a certificate holds under the model's environment actions — the
# hostile ring's env action breaks S, as `tolerance` reports at budget 1
expect 2 certify test/golden/ring_hostile.nm --faults corrupt:k=1
$CLI certify test/golden/ring_hostile.nm --faults corrupt:k=1 2>/dev/null \
  | grep -q '^  \[FAIL\] environment closure'
if [ $? -ne 0 ]; then
  echo "FAIL: certify under a hostile environment does not report the environment-closure failure"
  failed=1
else
  echo "ok:   certify under a hostile environment reports the environment-closure failure"
fi
# 3: eager refuses a space over its --max-states budget (13^7 ≈ 6.3e7)
# and says the budget can be raised
expect 3 check dijkstra --nodes 7 -k 13 --engine eager
if grep -q -- '--max-states' "$stderr_file"; then
  echo "ok:   --engine eager over --max-states advises raising it"
else
  echo "FAIL: --engine eager over --max-states does not name the flag"
  failed=1
fi
# 3: eager refuses a space over 2^31 - 1 states (13^12 ≈ 2^45), whose ids
# its int32 CSR destinations cannot hold, whatever --max-states says —
# so it advises the lazy engine and not a larger budget
for budget in "" "--max-states 100000000000000"; do
  expect 3 check dijkstra --nodes 12 -k 13 --engine eager $budget
  if grep -q int32 "$stderr_file" && ! grep -q -- '--max-states' "$stderr_file"; then
    echo "ok:   --engine eager over 2^31 states ${budget:+($budget) }names the int32 limit"
  else
    echo "FAIL: --engine eager over 2^31 states ${budget:+($budget) }: stderr does not name the int32 limit, or advises --max-states"
    failed=1
  fi
done
# 3: no engine takes a space the 60-bit state encoding cannot address
# (13^56 ≈ 2^207) — a typed encoding overflow that names the dense
# encoding, not a crash, and not advice to retry with the lazy engine or
# a larger budget
for engine in "eager" "lazy" "parallel --jobs 2"; do
  expect 3 check dijkstra --nodes 56 -k 13 --engine $engine
  if grep -q dense "$stderr_file" && ! grep -q -e '--engine lazy' -e '--max-states' "$stderr_file"; then
    echo "ok:   --engine $engine over 2^60 states names the dense encoding"
  else
    echo "FAIL: --engine $engine over 2^60 states: stderr does not name the dense encoding, or advises --engine lazy or --max-states"
    failed=1
  fi
done
# 4: lazy runs out of budget (full sweep and ball-seeded)
expect 4 check dijkstra --nodes 12 -k 13 --engine lazy --max-states 1000
expect 4 check dijkstra --nodes 12 -k 13 --engine lazy --max-states 1000 --ball 2
# 4: the parallel backend trips the same budget
expect 4 check dijkstra --nodes 12 -k 13 --engine parallel --jobs 2 --max-states 1000 --ball 2
# 5: a state budget runs out mid-exploration (graceful, unlike exit 4's
# hard cap) — on the lazy and parallel backends, and for certify's span
expect 5 check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --budget-states 1000
expect 5 check dijkstra --nodes 12 -k 13 --engine parallel --jobs 2 --ball 2 --budget-states 1000
expect 5 certify token-ring --nodes 4 -k 6 --faults corrupt:k=1 --budget-states 100
# 5: the eager relation's row builds poll the same budget, and the stop
# reports the rows built (polled every 8192: it trips at 8192)
expect 5 check diffusing --size 9 --engine eager --budget-states 1000
if grep -q '"states_seen":8192,' "$stderr_file"; then
  echo "ok:   eager budget stop reports states_seen 8192"
else
  echo "FAIL: eager budget stop does not report states_seen 8192"
  failed=1
fi
# 0: the eager relation builds only the rows a ball's walk reaches, so
# the budget bounds the search, not the 117,649-state space, and the
# answer is the lazy engine's
expect 0 check token-ring --nodes 6 -k 7 --ball 1 --engine eager --budget-states 50000
expect 0 check token-ring --nodes 6 -k 7 --ball 2 --engine eager --budget-states 50000
for r in 1 2; do
  $CLI check token-ring --nodes 6 -k 7 --ball $r --engine eager \
    --budget-states 50000 2>/dev/null | sed 's/(eager engine)/(lazy engine)/' >"$out_full"
  $CLI check token-ring --nodes 6 -k 7 --ball $r --engine lazy \
    --budget-states 50000 >"$out_resumed" 2>/dev/null
  if cmp -s "$out_full" "$out_resumed"; then
    echo "ok:   eager --ball $r under --budget-states prints lazy's answer"
  else
    echo "FAIL: eager --ball $r under --budget-states differs from lazy"
    failed=1
  fi
done
# 5: an already-expired deadline stops at the first polling point
expect 5 check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --deadline 0
# 5: storm and fuzz report a partial sample instead of pretending coverage
expect 5 storm token-ring --nodes 3 -k 4 --rate 0.1 --trials 20 --deadline 0
expect 5 fuzz --seed 42 --count 5 --deadline 0
# 5: the theorem certificate's obligation sweep polls the same budgets
# (uninterrupted, this run takes about a second)
for budget in "--deadline 0.2" "--budget-states 1000"; do
  expect 5 certify token-ring --nodes 6 -k 7 $budget
  if head -n 1 "$stderr_file" | grep -q '^error: incomplete:'; then
    echo "ok:   certify $budget stderr reports incomplete"
  else
    echo "FAIL: certify $budget stderr does not start with error: incomplete:"
    failed=1
  fi
done
# 1: the theorem certificate (no fault class) has no fault span, so the
# span flags are usage errors naming the flag
for flag in --ball --fault-budget; do
  expect 1 certify token-ring --nodes 4 -k 5 $flag 1
  if grep -q -- "$flag" "$stderr_file"; then
    echo "ok:   certify $flag without --faults stderr names the flag"
  else
    echo "FAIL: certify $flag without --faults stderr does not name the flag"
    failed=1
  fi
done
# 1: --max-states must be positive (serve's max_states rule), on the
# eager and the lazy engine alike, and the error names the flag
for cmd in "check examples/models/token_ring.nm" \
  "tolerance examples/models/token_ring.nm --engine lazy"; do
  expect 1 $cmd --max-states 0
  grep -q -- '--max-states' "$stderr_file"
  if [ $? -ne 0 ]; then
    echo "FAIL: $cmd --max-states 0 stderr does not name the flag"
    failed=1
  else
    echo "ok:   $cmd --max-states 0 stderr names the flag"
  fi
done
# 1: graceful-degradation flag validation
expect 1 check token-ring --nodes 3 -k 3 --budget-states 0
expect 1 storm token-ring --nodes 3 -k 4 --trials 5 --trial-timeout 0
expect 1 certify token-ring --nodes 3 -k 4 --checkpoint-out "$ckpt"
# 1: state/byte budgets count explored states, so trial sweeps reject
# them outright instead of accepting flags that could never trip
expect 1 storm token-ring --nodes 3 -k 4 --trials 5 --budget-states 100
expect 1 fuzz --seed 42 --count 5 --budget-bytes 10000

# --- .nm model files ---------------------------------------------------
# 0: a .nm path is accepted everywhere a protocol name is
expect 0 check examples/models/xyz.nm
expect 0 check examples/models/token_ring.nm --engine parallel --jobs 2
expect 0 certify examples/models/token_ring.nm --faults corrupt:k=1
expect 0 check examples/models/token_ring.nm --param N=3 --param K=4
# 1: malformed input exits 1 with a located message on stderr — never an
# exception trace. One file per failure class of the pipeline: lexer/
# parser syntax, unknown variable, out-of-domain constant, zero divisor,
# and a guard nested past the parser's limit (10,000 parentheses).
cat >"$nm.syntax.nm" <<'EOF'
model broken
var x : 0..2
action step
  x = 0 -> x := 1
EOF
cat >"$nm.unknown.nm" <<'EOF'
model broken
var x : 0..2
action step:
  x = 0 -> y := 1
invariant x = 0
EOF
cat >"$nm.domain.nm" <<'EOF'
model broken
var x : 0..2
action step:
  x = 0 -> x := 9
invariant x >= 0
EOF
cat >"$nm.divzero.nm" <<'EOF'
model broken
var x : 0..2
action step:
  x / 0 = 0 -> x := 1
invariant x = 0
EOF
awk 'BEGIN {
  printf "model broken\nvar x : 0..2\nvar y : 0..2\naction step:\n  "
  for (i = 0; i < 10000; i++) printf "("
  printf "x = y"
  for (i = 0; i < 10000; i++) printf ")"
  printf " -> x := 1\ninvariant x = 0\n"
}' >"$nm.nesting.nm"
for bad in syntax unknown domain divzero nesting; do
  expect 1 check "$nm.$bad.nm"
  grep -Eq '(^|[ "])[^ ]*\.nm:[0-9]+:[0-9]+:' "$stderr_file"
  note2=$?
  if [ "$note2" -ne 0 ]; then
    echo "FAIL: check $bad.nm stderr lacks a file:line:col location"
    failed=1
  else
    echo "ok:   check $bad.nm stderr is located"
  fi
done
# 1: a missing model file and built-ins rejecting --param
expect 1 check /nonexistent/model.nm
expect 1 check token-ring --nodes 3 -k 3 --param N=3
expect 1 check examples/models/xyz.nm --param N=oops

# --- tolerance: the quantified-tolerance sweep ------------------------
# 0: a completed sweep exits 0 — the frontier is the deliverable, even
# when individual points fail certification (naive-ring's cliff at 1)
expect 0 tolerance examples/models/token_ring.nm --budget-max 2
expect 0 tolerance token-ring --nodes 3 -k 4 --budget-max 2 --adversary
expect 0 tolerance naive-ring --nodes 3 --faults corrupt:k=1 --budget-max 1
# 1: a negative sweep ceiling is a usage error with a reason on stderr
expect 1 tolerance examples/models/token_ring.nm --budget-max=-2
grep -q 'budget-max' "$stderr_file"
if [ $? -ne 0 ]; then
  echo "FAIL: negative --budget-max stderr does not name the flag"
  failed=1
else
  echo "ok:   negative --budget-max stderr names the flag"
fi
expect 1 tolerance examples/models/token_ring.nm --budgets 0,oops
# 1: a negative --budgets entry breaks the rule --budget-max and serve's
# budget_max share
expect 1 tolerance examples/models/token_ring.nm --budgets 0,-1
grep -q -- '--budgets entry must be non-negative' "$stderr_file"
if [ $? -ne 0 ]; then
  echo "FAIL: negative --budgets entry stderr does not name the rule"
  failed=1
else
  echo "ok:   negative --budgets entry stderr names the rule"
fi
# 5: a sweep interrupted mid-exploration exits 5 — and the points that
# completed before the trip survive in the --report file (flushed per
# point, not at the end)
$CLI tolerance token-ring --nodes 4 -k 6 --faults corrupt:k=1 \
  --budget-states 100 --report "$frontier" >/dev/null 2>"$stderr_file"
got=$?
if [ "$got" -eq 5 ] && [ -s "$stderr_file" ] && [ -s "$frontier" ] \
  && head -1 "$frontier" | grep -q '"budget":0'; then
  echo "ok:   interrupted sweep -> exit 5, partial frontier flushed"
else
  echo "FAIL: interrupted sweep (exit $got) did not leave a partial frontier"
  failed=1
fi

# --- env actions: parse, certify, and format idempotently -------------
cat >"$nm.sensor.nm" <<'EOF'
model sensor-demo

var x : 0..2
var sensor : 0..1

action settle:
  x > 0 -> x := x - 1

env flip:
  true -> sensor := 1 - sensor

invariant x = 0
EOF
# the env item parses and rides through a sweep
expect 0 tolerance "$nm.sensor.nm" --budget-max 1
# fmt is idempotent on models with env actions, and preserves the item
$CLI fmt "$nm.sensor.nm" >"$nm.sensor.fmt1" 2>/dev/null
cp "$nm.sensor.fmt1" "$nm.sensor2.nm"
$CLI fmt "$nm.sensor2.nm" >"$nm.sensor.fmt2" 2>/dev/null
if cmp -s "$nm.sensor.fmt1" "$nm.sensor.fmt2" \
  && grep -q '^env flip:' "$nm.sensor.fmt1"; then
  echo "ok:   fmt idempotent on env-action model"
else
  echo "FAIL: fmt not idempotent on env-action model (or env item lost)"
  failed=1
fi

# --- fmt --hash: the canonical model digest --------------------------
# 0: works for .nm files and built-in protocols alike
expect 0 fmt examples/models/token_ring.nm --hash
expect 0 fmt token-ring --nodes 3 -k 4 --hash
# the digest is deterministic, and --param changes it (params are folded
# into the canonical form — the serve cache keys on this)
h1=$($CLI fmt examples/models/token_ring.nm --hash 2>/dev/null)
h2=$($CLI fmt examples/models/token_ring.nm --hash 2>/dev/null)
h3=$($CLI fmt examples/models/token_ring.nm --hash --param N=3 2>/dev/null)
[ -n "$h1" ] && [ "$h1" = "$h2" ] && [ "$h1" != "$h3" ]
note2=$?
if [ "$note2" -ne 0 ]; then
  echo "FAIL: fmt --hash not deterministic or --param not folded in"
  failed=1
else
  echo "ok:   fmt --hash deterministic; --param changes the digest"
fi
# 1: --hash conflicts with the rewrite modes
expect 1 fmt examples/models/token_ring.nm --hash --write
expect 1 fmt examples/models/token_ring.nm --hash --check

# --- checkpoint/resume roundtrip -------------------------------------
# An interrupted run writes a snapshot (exit 5); resuming it must reach
# the verdict of an uninterrupted run, with byte-identical stdout.
note() { if [ "$1" -eq 0 ]; then echo "ok:   $2"; else echo "FAIL: $2"; failed=1; fi; }

$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 >"$out_full" 2>/dev/null
note $? "uninterrupted baseline run"
$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 \
  --budget-states 2000 --checkpoint-out "$ckpt" >/dev/null 2>"$stderr_file"
[ $? -eq 5 ] && [ -s "$stderr_file" ] && [ -s "$ckpt" ]
note $? "interrupted run -> exit 5, stderr reason, snapshot written"
grep -q '"checkpoint"' "$stderr_file"
note $? "stderr names the checkpoint file"
$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 \
  --resume "$ckpt" >"$out_resumed" 2>/dev/null
note $? "resumed run -> exit 0"
cmp -s "$out_full" "$out_resumed"
note $? "resumed stdout identical to uninterrupted run"
# the parallel backend resumes the same snapshot to the same verdict
# (stdout compared against a parallel baseline: the banner names the engine)
$CLI check dijkstra --nodes 12 -k 13 --engine parallel --jobs 2 --ball 2 \
  >"$out_full" 2>/dev/null
$CLI check dijkstra --nodes 12 -k 13 --engine parallel --jobs 2 --ball 2 \
  --resume "$ckpt" >"$out_resumed" 2>/dev/null
cmp -s "$out_full" "$out_resumed"
note $? "parallel resume of the lazy-written snapshot identical"

# a later run that fails without saving (exit 4's hard cap) must not
# clobber the snapshot sitting at --checkpoint-out: it still resumes
$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 \
  --max-states 1000 --checkpoint-out "$ckpt" >/dev/null 2>"$stderr_file"
[ $? -eq 4 ] && [ -s "$ckpt" ]
note $? "non-saving failed run keeps the existing snapshot"
$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 \
  --resume "$ckpt" >/dev/null 2>/dev/null
note $? "snapshot still resumes after the failed run"
# a failed run that never saved removes its empty placeholder, so a
# leftover --checkpoint-out file always means "something to resume"
$CLI check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 \
  --max-states 1000 --checkpoint-out "$ckpt.ph" >/dev/null 2>/dev/null
[ ! -e "$ckpt.ph" ]
note $? "failed run leaves no empty checkpoint placeholder"

# 1: corrupt, truncated, or alien snapshots are rejected with a reason
head -c 64 "$ckpt" >"$ckpt.trunc"
expect 1 check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --resume "$ckpt.trunc"
printf 'not a snapshot' >"$ckpt.garbage"
expect 1 check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --resume "$ckpt.garbage"
# config-hash mismatch: same snapshot, different instance
expect 1 check dijkstra --nodes 12 -k 12 --engine lazy --ball 2 --resume "$ckpt"
expect 1 check dijkstra --nodes 12 -k 13 --engine lazy --ball 2 --resume /nonexistent/ckpt.snap

# --- SIGTERM during a long check -------------------------------------
# The signal handler requests cooperative cancellation; the run stops at
# the next polling point with exit 5 and a machine-readable reason.
if [ -x "$BIN" ]; then
  "$BIN" check dijkstra --nodes 12 -k 13 --engine lazy --ball 3 \
    --max-states 50000000 >/dev/null 2>"$stderr_file" &
  pid=$!
  sleep 1
  kill -TERM "$pid" 2>/dev/null
  wait "$pid"
  got=$?
  [ "$got" -eq 5 ] && [ -s "$stderr_file" ] && grep -q SIGTERM "$stderr_file"
  note $? "SIGTERM during check -> exit 5 with signal reason (got $got)"
else
  echo "skip: SIGTERM leg ($BIN not built)"
fi

exit "$failed"
