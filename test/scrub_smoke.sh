#!/bin/sh
# Self-healing storage smoke: the acceptance gate for the resilient
# store (checksummed chunks, device-fault injection, scrub-and-repair).
#
# Leg 1 — identity: with no fault plan the resilient layer must be
#   bit-identical to the raw store, and so must a transient-only fault
#   plan, whose faults (a sync's included) are all retried away — one
#   image digest from ffs_inspect for all three runs.
#
# Leg 2 — verification: the store acknowledges its checksums at every
#   sync and a scrub syncs before it walks, so every scrub of a short
#   faultless resilient run must verify every chunk.
#
# Leg 3 — chaos: a checkpointed aging run with seeded device faults
#   injected beneath the checksums (transients, latent bad chunks, bit
#   rot, torn syncs) and a scrub every day is killed mid-flight with
#   SIGKILL, resumed from its checkpoint, and the final image must pass
#   a zero-fault, no-repair fsck: scrub-and-repair healed everything
#   the device broke, with no user data lost.
#
# Leg 4 — the fsck surface: `ffs_fsck --scrub` on the healed image
#   must report it clean.
#
# Uses the built binaries directly (not `dune exec`) so the SIGKILL
# lands on the aging process itself, not a wrapper.
set -eu

AGE=_build/default/bin/ffs_age.exe
FSCK=_build/default/bin/ffs_fsck.exe
INSPECT=_build/default/bin/ffs_inspect.exe
WORK=$(mktemp -d /tmp/ffs_scrub_smoke.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

echo "== scrub smoke: identity leg (raw, resilient, retried transients) =="
RUN="--fs small --days 5 --workload ground-truth -q"
"$AGE" $RUN --backend bytes --image "$WORK/raw.img"
"$AGE" $RUN --backend resilient --image "$WORK/res.img"
# a transient-only plan at a rate and seed whose run retries a sync
# (checked in its trace) without ever exhausting the retries. Faults
# are drawn per store access, so the seed that lands one on a sync
# depends on how many accesses the bitmaps make: it is the first seed
# from 42 up that does
"$AGE" $RUN --store-faults transient=0.01,horizon=6 --fault-seed 44 \
  --image "$WORK/tr.img" --trace "$WORK/tr.jsonl"
grep '"store.retry"' "$WORK/tr.jsonl" | grep -q '"op":"sync"' \
  || { echo "the transient run retried no sync"; exit 1; }
a=$("$INSPECT" --image "$WORK/raw.img" --digest)
b=$("$INSPECT" --image "$WORK/res.img" --digest)
c=$("$INSPECT" --image "$WORK/tr.img" --digest)
if [ -n "$a" ] && [ "$a" = "$b" ] && [ "$a" = "$c" ]; then
  echo "   digests match: $a"
else
  echo "digests diverged: raw=$a resilient=$b transient=$c"
  exit 1
fi

echo "== scrub smoke: every scrub verifies every chunk =="
scrubs=$("$AGE" --fs small --days 3 --backend resilient --scrub-every 1 2>&1 >/dev/null \
  | grep '^scrub:' || true)
if [ -z "$scrubs" ]; then
  echo "the resilient run printed no scrub line"
  exit 1
fi
# "scrub: N chunks (V verified, ...": every line needs N > 0 and V = N
short=$(printf '%s\n' "$scrubs" | awk '{ v = substr($4, 2) } $2 == 0 || v != $2')
if [ -n "$short" ]; then
  echo "a scrub left chunks unverified:"
  echo "$short"
  exit 1
fi
echo "   $(printf '%s\n' "$scrubs" | wc -l) scrubs, each verified every chunk"

echo "== scrub smoke: chaos leg (device faults + kill -9 + resume) =="
FAULTS="transient=0.001,latent=1,bitrot=6,torn=2,horizon=60"
SPEC="--fs small --days 120 --seed 1201 --fault-seed 97 --workload ground-truth \
  --store-faults $FAULTS --scrub-every 1 --checkpoint-every 1"
"$AGE" $SPEC --checkpoint-dir "$WORK/ck" --image "$WORK/chaos.img" \
  -q >/dev/null 2>&1 &
pid=$!
sleep 0.8
if kill -9 "$pid" 2>/dev/null; then
  echo "   killed aging pid $pid mid-flight"
else
  echo "   note: run finished before the kill; resume still must be a no-op"
fi
wait "$pid" 2>/dev/null || true

# the resumed leg leaves a trace at a stable path so CI can upload it
# when a later step fails
"$AGE" $SPEC --resume "$WORK/ck" --checkpoint-dir "$WORK/ck" \
  --image "$WORK/chaos.img" --trace /tmp/ffs_scrub_smoke_trace.jsonl \
  -q >/dev/null
"$FSCK" --image "$WORK/chaos.img" --faults 0 --no-repair -q >/dev/null \
  || { echo "chaos image is not fsck-clean"; exit 1; }
echo "   resumed chaos run ends fsck-clean with zero repairs needed"

echo "== scrub smoke: ffs_fsck --scrub on the healed image =="
"$FSCK" --image "$WORK/chaos.img" --scrub -q | grep -q "image is clean" \
  || { echo "scrub of the healed image is not clean"; exit 1; }
echo "scrub smoke: OK"
