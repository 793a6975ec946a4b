#!/bin/sh
# Model-language smoke: every examples/models/*.nm must parse, format
# idempotently (fmt of fmt output is a fixpoint), compile and reach a
# verdict on both the eager and lazy backends, and export to TLA+ and
# DOT. The paper's three worked models must additionally produce
# `check` output byte-identical to their hand-coded OCaml twins.
# Run from the repo root: sh test/smoke_models.sh
set -u

CLI="${CLI:-dune exec bin/nonmask_cli.exe --}"
failed=0
tmp="${TMPDIR:-/tmp}"
# fmt files keep the .nm suffix: the CLI tells a model file from a
# built-in protocol name by it
t1="$tmp/nonmask_smoke_fmt1.$$.nm"
t2="$tmp/nonmask_smoke_fmt2.$$.nm"
out_a="$tmp/nonmask_smoke_model_a.$$"
out_b="$tmp/nonmask_smoke_model_b.$$"
trap 'rm -f "$t1" "$t2" "$out_a" "$out_b"' EXIT

note() { if [ "$1" -eq 0 ]; then echo "ok:   $2"; else echo "FAIL: $2"; failed=1; fi; }

models=$(ls examples/models/*.nm 2>/dev/null)
if [ -z "$models" ]; then
  echo "FAIL: no examples/models/*.nm found (run from the repo root)"
  exit 1
fi

for m in $models; do
  # parse + canonical print
  $CLI fmt "$m" >"$t1" 2>/dev/null
  note $? "fmt $m"
  # idempotence: formatting the formatted text is a fixpoint
  $CLI fmt "$t1" >"$t2" 2>/dev/null && cmp -s "$t1" "$t2"
  note $? "fmt idempotent on $m"
  # compile + explore on both exhaustive backends
  $CLI check "$m" --engine eager >/dev/null 2>&1
  note $? "check $m --engine eager"
  $CLI check "$m" --engine lazy >/dev/null 2>&1
  note $? "check $m --engine lazy"
  # exporters
  $CLI export --tla "$m" >/dev/null 2>&1
  note $? "export --tla $m"
  $CLI export --dot "$m" >/dev/null 2>&1
  note $? "export --dot $m"
done

# The paper models' OCaml twins: `check MODEL.nm` must be byte-identical
# below the banner line (the banner carries the instance's display name,
# which for built-ins embeds the parameterization).
twin() {
  m="$1"
  shift
  $CLI check "$m" 2>/dev/null | tail -n +2 >"$out_a" &&
    $CLI check "$@" 2>/dev/null | tail -n +2 >"$out_b" &&
    [ -s "$out_a" ] && cmp -s "$out_a" "$out_b"
  note $? "check $m byte-identical to builtin twin"
}
twin examples/models/xyz.nm xyz-good-tree
twin examples/models/token_ring.nm token-ring --nodes 5 -k 6
twin examples/models/diffusing.nm diffusing --tree balanced --size 7

exit "$failed"
