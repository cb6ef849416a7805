#!/usr/bin/env bash
# End-to-end smoke of the statsize timing daemon: starts `statsize serve`
# on a Unix socket with an always-NaN fault plan wired into every solve,
# drives one scripted client session through every robustness path —
# served analyze/whatif, typed breakdown from the injected fault, a
# graceful-degradation reply and a typed timeout from hopeless
# deadlines, quarantine after the breaker trips, a fully served
# gradient (one entry per gate), a 10^5-deep nested line refused as a
# typed bad_request while the daemon keeps serving, a stats snapshot —
# then SIGTERMs the daemon and asserts the drain: exit status 0, one
# reply per request, typed error codes where expected, and a final
# counter line satisfying submitted = served + degraded + shed + refused.
#
# Usage: scripts/serve_smoke.sh [path-to-statsize]
# (defaults to the dune build; run `dune build bin/statsize.exe` first,
# or pass a binary.)
set -u

STATSIZE="${1:-_build/default/bin/statsize.exe}"
if [ ! -x "$STATSIZE" ]; then
  echo "serve_smoke: $STATSIZE not found or not executable" >&2
  exit 2
fi

WORK="$(mktemp -d)"
SOCK="$WORK/statsize.sock"
DAEMON_ERR="$WORK/daemon.stderr"
REPLIES="$WORK/replies.jsonl"
trap 'kill "$DAEMON_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "---- daemon stderr ----" >&2
  cat "$DAEMON_ERR" >&2 || true
  echo "---- replies ----" >&2
  cat "$REPLIES" >&2 || true
  exit 1
}

# Breaker threshold 2: the two faulted solves trip it, the third size
# request must come back quarantined.
"$STATSIZE" serve --circuits fig2,tree --socket "$SOCK" \
  --breaker-threshold 2 --fault nan-value@always 2>"$DAEMON_ERR" &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before creating socket"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "socket $SOCK never appeared"

# The scripted session.  recovery:false keeps the faulted solves cheap:
# one breakdown each, no ladder.  Line 10 nests 10^5 arrays deep; its
# id is never reached, so its reply carries "id":null.
DEEP="{\"op\":\"analyze\",\"circuit\":\"tree\",\"sizes\":$(head -c 100000 /dev/zero | tr '\0' '[')"
{
  cat <<'EOF'
{"op":"analyze","id":1,"circuit":"tree"}
{"op":"whatif","id":2,"circuit":"tree","deltas":[[0,2.0]]}
{"op":"size","id":3,"circuit":"fig2","objective":{"kind":"min-delay","k":3},"recovery":false,"max_evals":400}
{"op":"size","id":4,"circuit":"fig2","objective":{"kind":"min-delay","k":3},"recovery":false,"max_evals":400}
{"op":"size","id":5,"circuit":"fig2","objective":{"kind":"min-delay","k":3},"recovery":false,"max_evals":400}
{"op":"analyze","id":6,"circuit":"tree","deadline_ms":0.000001}
{"op":"gradient","id":7,"circuit":"tree","seed":"mu","deadline_ms":0.000001}
{"op":"analyze","id":8,"circuit":"nowhere"}
{"op":"gradient","id":9,"circuit":"tree","seed":{"mu_k_sigma":3}}
EOF
  echo "$DEEP"
  echo '{"op":"stats","id":11}'
} | "$STATSIZE" serve --connect "$SOCK" >"$REPLIES"
CLIENT_STATUS=$?
[ "$CLIENT_STATUS" -eq 0 ] || fail "client exited $CLIENT_STATUS"

# One reply line per request.
N_REPLIES=$(wc -l <"$REPLIES")
[ "$N_REPLIES" -eq 11 ] || fail "expected 11 replies, got $N_REPLIES"

expect() { # expect <id> <pattern> <label>
  grep -F "\"id\":$1," "$REPLIES" | grep -qF "$2" \
    || fail "reply $1 lacks $2 ($3)"
}

expect 1 '"ok":true'             "analyze served"
expect 1 '"degraded":false'      "analyze not degraded"
expect 2 '"ok":true'             "whatif served"
expect 3 '"code":"breakdown"'    "faulted size -> typed breakdown"
expect 4 '"code":"breakdown"'    "second faulted size -> typed breakdown"
expect 5 '"code":"quarantined"'  "breaker tripped -> quarantined"
expect 6 '"degraded":true'       "hopeless-deadline analyze degrades"
expect 7 '"code":"timeout"'      "hopeless-deadline gradient -> typed timeout"
expect 8 '"code":"unknown_circuit"' "unknown circuit -> typed error"
expect 9 '"degraded":false'      "gradient fully served"
expect 11 '"ok":true'            "stats served after the deep line"
expect 11 '"submitted"'          "stats carries the conservation counters"
expect 11 '"breakers"'           "stats carries breaker states"

# The gradient reply parses and carries one entry per gate of tree.
N_TREE=$("$STATSIZE" analyze -c tree | sed -n 's/.*gates=\([0-9]*\).*/\1/p')
python3 -c '
import json, sys
reply = next(r for r in map(json.loads, open(sys.argv[1])) if r.get("id") == 9)
sys.exit(0 if len(reply["result"]["gradient"]) == int(sys.argv[2]) else 1)
' "$REPLIES" "$N_TREE" || fail "gradient reply lacks one entry per gate ($N_TREE)"

# The deep line: a typed bad_request naming the nesting cap.
grep -F '"id":null,' "$REPLIES" | grep -F '"code":"bad_request"' \
  | grep -qF 'nesting deeper than' \
  || fail "10^5-deep line did not come back as a typed bad_request"

# SIGTERM: clean drain, exit 0, final counter line balances.
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[ "$DAEMON_STATUS" -eq 0 ] || fail "daemon exited $DAEMON_STATUS on SIGTERM"

COUNTS=$(grep -o 'drained; [0-9]* submitted = [0-9]* served + [0-9]* degraded + [0-9]* shed + [0-9]* refused' "$DAEMON_ERR") \
  || fail "daemon printed no drain counter line"
read -r SUB SRV DEG SHD REF <<<"$(echo "$COUNTS" | grep -o '[0-9]*' | tr '\n' ' ')"
[ "$SUB" -eq 11 ] || fail "daemon counted $SUB submitted, expected 11"
[ "$SUB" -eq $((SRV + DEG + SHD + REF)) ] \
  || fail "conservation violated: $SUB != $SRV + $DEG + $SHD + $REF"
[ "$DEG" -eq 1 ] || fail "expected exactly 1 degraded, got $DEG"
[ "$SRV" -eq 4 ] || fail "expected 4 served (analyze, whatif, gradient, stats), got $SRV"

echo "serve_smoke: OK ($SUB submitted = $SRV served + $DEG degraded + $SHD shed + $REF refused)"
