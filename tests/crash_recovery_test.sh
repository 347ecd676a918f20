#!/usr/bin/env bash
# Crash-kill / resume drill for satori_sim's durability layer.
#
# Runs an uninterrupted reference, then checkpointed runs killed at a
# seeded interval (exit 137, like kill -9) - once cleanly after a WAL
# append, once mid-append (torn tail), and once with a JSON Lines
# trace - resumes each with --resume, and requires the finished traces
# to be byte-identical (cmp) to the matching reference. Also drills the
# CLI validation error paths.
#
# Usage: crash_recovery_test.sh <path-to-satori_sim>
set -u

SIM=${1:?usage: crash_recovery_test.sh <satori_sim>}
WORK=$(mktemp -d /tmp/satori_crashrec.XXXXXX)
trap 'rm -rf "$WORK"' EXIT

RUN_ARGS=(--mix canneal,streamcluster,vips --policy SATORI
          --duration 20 --cores 6 --ways 6 --bw 6)
FAIL=0

fail() {
    echo "FAIL: $*" >&2
    FAIL=1
}

# --- reference: uninterrupted run --------------------------------------
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/ref.csv" > /dev/null \
    || fail "reference run exited $?"

# --- scenario 1: clean kill after interval 130's WAL append ------------
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/dead1.csv" \
    --checkpoint-dir "$WORK/ck1" --checkpoint-every 40 \
    --kill-at 130 > /dev/null 2>&1
[ $? -eq 137 ] || fail "clean kill: expected exit 137"
[ -f "$WORK/dead1.csv" ] && fail "killed run must not install its trace"

"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/res1.csv" \
    --checkpoint-dir "$WORK/ck1" --checkpoint-every 40 \
    --resume > /dev/null 2>&1 || fail "resume 1 exited $?"
cmp "$WORK/ref.csv" "$WORK/res1.csv" \
    || fail "resumed trace differs from the uninterrupted reference"

# --- scenario 2: kill mid-append (torn WAL tail) -----------------------
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/dead2.csv" \
    --checkpoint-dir "$WORK/ck2" --checkpoint-every 40 \
    --kill-at 95 --kill-torn > /dev/null 2>&1
[ $? -eq 137 ] || fail "torn kill: expected exit 137"

"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/res2.csv" \
    --checkpoint-dir "$WORK/ck2" --checkpoint-every 40 \
    --resume > /dev/null 2> "$WORK/res2.err" || fail "resume 2 exited $?"
grep -q "torn tail" "$WORK/res2.err" \
    || fail "torn-tail resume should report the truncation"
cmp "$WORK/ref.csv" "$WORK/res2.csv" \
    || fail "torn-tail resume trace differs from the reference"

# --- scenario 3: JSON Lines trace, clean kill and resume --------------
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/ref.jsonl" --trace-format jsonl \
    > /dev/null || fail "JSONL reference run exited $?"
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/dead3.jsonl" --trace-format jsonl \
    --checkpoint-dir "$WORK/ck3j" --checkpoint-every 40 \
    --kill-at 110 > /dev/null 2>&1
[ $? -eq 137 ] || fail "JSONL kill: expected exit 137"
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/res3.jsonl" --trace-format jsonl \
    --checkpoint-dir "$WORK/ck3j" --checkpoint-every 40 \
    --resume > /dev/null 2>&1 || fail "JSONL resume exited $?"
cmp "$WORK/ref.jsonl" "$WORK/res3.jsonl" \
    || fail "resumed JSONL trace differs from the uninterrupted reference"

# --- scenario 4: kill while exploring -----------------------------------
# The run settles at interval 39, so snapshots every 40 intervals are
# all taken settled. Here the snapshot at interval 20 is taken mid-
# exploration and intervals 21-25 re-execute from a restored BO engine.
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/dead4.csv" \
    --checkpoint-dir "$WORK/ck4x" --checkpoint-every 10 \
    --kill-at 25 > /dev/null 2>&1
[ $? -eq 137 ] || fail "exploring kill: expected exit 137"
"$SIM" "${RUN_ARGS[@]}" --trace "$WORK/res4.csv" \
    --checkpoint-dir "$WORK/ck4x" --checkpoint-every 10 \
    --resume > /dev/null 2>&1 || fail "exploring resume exited $?"
cmp "$WORK/ref.csv" "$WORK/res4.csv" \
    || fail "resume from an exploring snapshot differs from the reference"

# --- corruption: a bit flip is a hard error, never silent --------------
SNAP=$(ls "$WORK/ck2"/snap.*.bin | tail -1)
printf '\x01' | dd of="$SNAP" bs=1 seek=200 conv=notrunc 2> /dev/null
"$SIM" "${RUN_ARGS[@]}" --checkpoint-dir "$WORK/ck2" --resume \
    > /dev/null 2> "$WORK/corrupt.err"
[ $? -eq 1 ] || fail "corrupted snapshot: expected exit 1"
grep -q "CRC mismatch" "$WORK/corrupt.err" \
    || fail "corrupted snapshot should name the CRC mismatch"

# --- CLI validation paths ----------------------------------------------
"$SIM" "${RUN_ARGS[@]}" --resume > /dev/null 2>&1
[ $? -eq 2 ] || fail "--resume without --checkpoint-dir: expected exit 2"

"$SIM" "${RUN_ARGS[@]}" --checkpoint-dir "$WORK/ck3" --compare-oracle \
    > /dev/null 2>&1
[ $? -eq 2 ] || fail "--compare-oracle with checkpointing: expected exit 2"

"$SIM" "${RUN_ARGS[@]}" --trace /nonexistent/dir/out.csv > /dev/null 2>&1
[ $? -eq 1 ] || fail "unwritable --trace path: expected exit 1"

"$SIM" "${RUN_ARGS[@]}" --checkpoint-dir "$WORK/ck4" --resume \
    > /dev/null 2> "$WORK/empty.err"
[ $? -eq 1 ] || fail "--resume with empty dir: expected exit 1"
grep -q "nothing to resume" "$WORK/empty.err" \
    || fail "empty-dir resume should say there is nothing to resume"

if [ "$FAIL" -eq 0 ]; then
    echo "crash recovery drill: all scenarios byte-identical"
fi
exit "$FAIL"
