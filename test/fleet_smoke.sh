#!/bin/sh
# Fleet supervision smoke: the acceptance gate for the fleet supervisor.
#
# Leg 1 — quarantine: a small fleet with one volume forced (via
#   --chaos-fail) to fail every attempt must finish with that volume
#   quarantined and exit 3, and a --resume must still report it —
#   degraded fleets report their casualties, they never drop them. A
#   malformed --chaos-fail rule must be rejected, not ignored.
#
# Leg 2 — kill -9: a 64-volume fleet with fault injection is killed
#   mid-flight with SIGKILL, resumed from its manifest, and the
#   resumed aggregate (digest + allocation totals) must be
#   bit-identical to an uninterrupted run of the same spec.
#
# Uses the built binaries directly (not `dune exec`) so the SIGKILL
# lands on the fleet process itself, not a wrapper.
set -eu

FLEET=_build/default/bin/ffs_fleet.exe
INSPECT=_build/default/bin/ffs_inspect.exe
WORK=$(mktemp -d /tmp/ffs_fleet_smoke.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

field() { # field FILE KEY -> first numeric/string value of "KEY":VALUE
  sed -n "s/.*\"$2\":\(\"[^\"]*\"\|[0-9.e+-]*\).*/\1/p" "$1" | head -1
}

echo "== fleet smoke: quarantine leg =="
! "$FLEET" --volumes 1 --days 1 --state-dir "$WORK/bad" --chaos-fail 2-99 -q >/dev/null 2>&1 \
  || { echo "a malformed --chaos-fail rule must be a usage error"; exit 1; }
set +e
"$FLEET" --volumes 6 --days 2 --seed 1201 --jobs 2 --state-dir "$WORK/q" \
  --chaos-fail 2:99 --max-retries 1 --quarantine-after 2 \
  --out "$WORK/q.json" -q >/dev/null
status=$?
set -e
[ "$status" -eq 3 ] || { echo "expected exit 3 with a quarantined volume, got $status"; exit 1; }
[ "$(field "$WORK/q.json" quarantined)" = "1" ] \
  || { echo "report does not show 1 quarantined volume"; cat "$WORK/q.json"; exit 1; }
set +e
"$FLEET" --resume --state-dir "$WORK/q" --out "$WORK/q2.json" -q >/dev/null
status=$?
set -e
[ "$status" -eq 3 ] || { echo "resume of a quarantined fleet must still exit 3, got $status"; exit 1; }
[ "$(field "$WORK/q2.json" quarantined)" = "1" ] \
  || { echo "resume dropped the quarantined volume"; cat "$WORK/q2.json"; exit 1; }
echo "   quarantined volume survived resume, exit 3 both times"

echo "== fleet smoke: kill -9 + bit-identical resume leg (64 volumes) =="
SPEC="--volumes 64 --days 2 --seed 4242 --jobs 4 --fault-rate 0.5"
"$FLEET" $SPEC --state-dir "$WORK/a" --out "$WORK/a.json" -q >/dev/null

"$FLEET" $SPEC --state-dir "$WORK/b" -q >/dev/null 2>&1 &
pid=$!
sleep 0.2
if kill -9 "$pid" 2>/dev/null; then
  echo "   killed fleet pid $pid mid-flight"
else
  echo "   note: fleet finished before the kill; resume still must be a no-op"
fi
wait "$pid" 2>/dev/null || true

"$FLEET" --resume --state-dir "$WORK/b" --out "$WORK/b.json" -q >/dev/null
for key in digest blocks_allocated frags_allocated completed; do
  a=$(field "$WORK/a.json" "$key"); b=$(field "$WORK/b.json" "$key")
  [ -n "$a" ] && [ "$a" = "$b" ] \
    || { echo "aggregate $key diverged after kill -9 + resume: '$a' vs '$b'"; exit 1; }
done
echo "   resumed aggregate bit-identical: digest $(field "$WORK/a.json" digest)"

"$INSPECT" --manifest "$WORK/b/manifest.ffsm" | grep -q "crc:.*OK" \
  || { echo "ffs_inspect --manifest failed the CRC check"; exit 1; }
echo "   manifest CRC verified by ffs_inspect"
echo "fleet smoke: OK"
