#!/bin/sh
# Deadlines hold in every phase: a run under --deadline D must finish
# within D + 0.5 s, exiting 0 (done in time) or 5 (incomplete, with the
# reason on stderr), whichever phase the deadline lands in: the region
# search, the analysis after it, a fault span, a certificate or the
# adversary's ranks. D runs from 0.25 s to 2.5 s in steps of 0.25 s over
#   - check of a 4^10-state model on the lazy and the eager engine
#     (about 2 s uninterrupted: search, then Kahn and the longest paths);
#   - tolerance token-ring --nodes 6 -k 8 --adversary (5 s or more
#     uninterrupted, so every D stops it inside the sweep, most often in
#     a certificate's recurrence region or its fault-cycle search).
# Prints one line per run and the worst overshoot past D.
# Run from the repo root after `dune build`: sh test/smoke_deadlines.sh
set -u

# the built binary itself: a wrapper's start-up would count against D
BIN="${BIN:-_build/default/bin/nonmask_cli.exe}"
tmp="${TMPDIR:-/tmp}"
nm="$tmp/nonmask_deadline_model.$$.nm"
stderr_file="$tmp/nonmask_deadline_stderr.$$"
trap 'rm -f "$nm" "$stderr_file"' EXIT

cat >"$nm" <<'EOF'
model huge

param W = 10

var x[W] : 0..3

action dec[i in 0..W-1]: x[i] > 0 -> x[i] := x[i] - 1

invariant (forall i in 0..W-1: x[i] = 0)
EOF

failed=0
worst=-1
now() { date +%s.%N; }

run() {
  d="$1"
  shift
  start=$(now)
  "$BIN" "$@" --deadline "$d" >/dev/null 2>"$stderr_file"
  code=$?
  wall=$(awk -v a="$start" -v b="$(now)" 'BEGIN { printf "%.3f", b - a }')
  over=$(awk -v w="$wall" -v d="$d" 'BEGIN { printf "%.3f", w - d }')
  worst=$(awk -v a="$worst" -v b="$over" 'BEGIN { print (b > a ? b : a) }')
  verdict=ok
  if [ "$code" -ne 0 ] && [ "$code" -ne 5 ]; then
    verdict="FAIL (exit $code, want 0 or 5)"
  elif [ "$code" -eq 5 ] && ! [ -s "$stderr_file" ]; then
    verdict="FAIL (exit 5 with empty stderr)"
  elif awk -v w="$wall" -v d="$d" 'BEGIN { exit !(w > d + 0.5) }'; then
    verdict="FAIL (over D + 0.5 s)"
  fi
  case "$verdict" in FAIL*) failed=1 ;; esac
  echo "$verdict: D=$d wall=${wall}s exit=$code nonmask $*"
}

for d in 0.25 0.5 0.75 1.0 1.25 1.5 1.75 2.0 2.25 2.5; do
  run "$d" check "$nm" --engine lazy
  run "$d" check "$nm" --engine eager
  run "$d" tolerance token-ring --nodes 6 -k 8 --adversary
done

echo "worst overshoot past D: ${worst}s"
if [ "$failed" -ne 0 ]; then
  echo "deadline smoke FAILED"
  exit 1
fi
echo "deadline smoke passed"
