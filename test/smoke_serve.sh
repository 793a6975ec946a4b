#!/bin/sh
# Smoke-tests the serve daemon end to end over a Unix socket: startup,
# a cold check, a cache hit on resubmission, verdicts and compile errors
# carried in-protocol (daemon stays up), metrics, and a SIGTERM drain
# that exits 0 and removes the socket file.
# Run from the repo root: sh test/smoke_serve.sh
set -u

BIN="${BIN:-_build/default/bin/nonmask_cli.exe}"
if [ ! -x "$BIN" ]; then
  echo "skip: $BIN not built (run dune build first)"
  exit 0
fi

tmp="${TMPDIR:-/tmp}"
sock="$tmp/nonmask_serve_smoke.$$.sock"
log="$tmp/nonmask_serve_smoke.$$.log"
out="$tmp/nonmask_serve_smoke.$$.out"
nm="$tmp/nonmask_serve_smoke.$$.bad.nm"
failed=0
pid=""
trap 'if [ -n "$pid" ]; then kill -KILL "$pid" 2>/dev/null; fi; rm -f "$sock" "$log" "$out" "$nm"' EXIT

note() { if [ "$1" -eq 0 ]; then echo "ok:   $2"; else echo "FAIL: $2"; failed=1; fi; }

"$BIN" serve --listen "$sock" --jobs 2 >"$log" 2>&1 &
pid=$!

# submit retries the connect internally while the daemon binds
"$BIN" submit --to "$sock" ping >"$out" 2>&1
note $? "daemon answers ping"

model=examples/models/token_ring.nm

"$BIN" submit --to "$sock" check "$model" >"$out" 2>&1
rc=$?
[ "$rc" -eq 0 ] && grep -q '"cached":false' "$out"
note $? "cold check -> exit 0, not cached"

"$BIN" submit --to "$sock" check "$model" >"$out" 2>&1
rc=$?
[ "$rc" -eq 0 ] && grep -q '"cached":true' "$out"
note $? "hot resubmission -> served from cache"

# a different spelling of the same job (explicit default option) is the
# same cache entry: options are normalized before keying
"$BIN" submit --to "$sock" check "$model" --opt engine=lazy >"$out" 2>&1
rc=$?
[ "$rc" -eq 0 ] && grep -q '"cached":true' "$out"
note $? "normalized options hit the same cache entry"

# a failed verdict is ok:true with result.exit=2, and the client
# surfaces it as its own exit code
cat >"$nm" <<'EOF'
model bad

var x : 0..2

action stay: x = 1 -> x := 1

invariant x = 0
EOF
"$BIN" submit --to "$sock" check "$nm" >"$out" 2>&1
rc=$?
[ "$rc" -eq 2 ] && grep -q '"ok":true' "$out"
note $? "failed verdict -> in-protocol exit 2 (got $rc)"

# a model that does not compile is an in-protocol bad-request, client
# exit 1 — and the daemon survives it
printf 'model broken\n' >"$nm"
"$BIN" submit --to "$sock" check "$nm" >"$out" 2>&1
rc=$?
[ "$rc" -eq 1 ] && grep -q '"code":"bad-request"' "$out"
note $? "compile error -> in-protocol bad-request (got $rc)"
"$BIN" submit --to "$sock" ping >"$out" 2>&1
note $? "daemon alive after hostile jobs"

# storm and certify travel the same pipe
"$BIN" submit --to "$sock" storm "$model" --opt trials=20 >"$out" 2>&1
note $? "storm job over the wire"
"$BIN" submit --to "$sock" certify "$model" --opt faults=corrupt:k=1 >"$out" 2>&1
note $? "certify job over the wire"
# certify honours the model's environment actions, as the CLI does: the
# hostile ring's env action breaks S
"$BIN" submit --to "$sock" certify test/golden/ring_hostile.nm \
  --opt faults=corrupt:k=1 >"$out" 2>&1
rc=$?
[ "$rc" -eq 2 ] && grep -q '"exit":2' "$out" && grep -q '"status":"failed"' "$out"
note $? "certify under a hostile environment -> in-protocol exit 2 (got $rc)"

# metrics reports the cache traffic this script generated
"$BIN" submit --to "$sock" metrics >"$out" 2>&1
rc=$?
[ "$rc" -eq 0 ] && grep -q '"cache"' "$out" && grep -q 'serve_requests' "$out"
note $? "metrics op reports cache and prometheus text"

# SIGTERM: drain, exit 0, no socket file left behind
kill -TERM "$pid"
wait "$pid"
rc=$?
note "$rc" "SIGTERM drain -> daemon exit 0 (got $rc)"
grep -q 'drained' "$log"
note $? "daemon logged the drain"
[ ! -e "$sock" ]
note $? "socket file removed on drain"
pid=""

exit "$failed"
