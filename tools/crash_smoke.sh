#!/usr/bin/env bash
# Crash-injection smoke (wired into ctest; see tools/CMakeLists.txt) in three
# stages:
#
#   1. A bounded run of the durability refinement sweep: crash_injection_test
#      with a small transaction mix (ATOMFS_CRASH_TXNS) and a sampled crash
#      surface (ATOMFS_CRASH_MAX_POINTS), so every record-boundary, torn-write,
#      and bit-flip crash point it does visit must recover to an exact prefix
#      of the committed history — fast enough for tier-1, same zero-divergence
#      bar as the full sweep.
#
#   2. An end-to-end kill -9 of a journaled atomfsd: commit a transaction over
#      the wire, leave a second transaction open, SIGKILL the daemon, restart
#      it on the same journal, and require the committed data back and the
#      uncommitted transaction invisible.
#
#   3. The same kill -9 across a checkpoint boundary: a checkpointing daemon
#      (--checkpoint-units plus a SIGHUP-forced checkpoint) is SIGKILLed after
#      committing data both before and after the rotation; restart must
#      recover from the checkpoint + WAL suffix and see all of it. The
#      restarted daemon then commits more data, checkpoints over the wire and
#      is SIGKILLed too: a third start must see every generation's data and a
#      larger committed-unit count, which checks the reopened daemon's
#      checkpoint-id floor, unit count and mirror seed.
#
# Usage: crash_smoke.sh /path/to/crash_injection_test /path/to/atomfsd /path/to/fsshell
set -euo pipefail

CRASH_TEST=${1:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}
ATOMFSD=${2:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}
FSSHELL=${3:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}

WORK=$(mktemp -d)
DAEMON_PID=
SOCK=
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# start_daemon GEN JOURNAL [ATOMFSD_ARGS...]: starts atomfsd on $WORK/GEN.sock
# journaling to JOURNAL, logs to $WORK/GEN.log, sets DAEMON_PID and SOCK, and
# waits for the socket to appear.
start_daemon() {
  local gen=$1 journal=$2
  shift 2
  SOCK="$WORK/$gen.sock"
  "$ATOMFSD" --unix "$SOCK" --journal "$journal" --workers 2 "$@" > "$WORK/$gen.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
  [ -S "$SOCK" ] || { echo "FAIL: $gen daemon never created $SOCK"; cat "$WORK/$gen.log"; exit 1; }
}

crash_daemon() {
  kill -9 "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true
}

# stop_daemon GEN: SIGTERM the daemon, which must exit 0.
stop_daemon() {
  kill -TERM "$DAEMON_PID"
  wait "$DAEMON_PID" || { echo "FAIL: $1 daemon exited non-zero"; cat "$WORK/$1.log"; exit 1; }
}

# shell OUT COMMANDS: runs fsshell COMMANDS (printf format) on $SOCK into $WORK/OUT.
shell() {
  # shellcheck disable=SC2059
  printf "$2" | "$FSSHELL" --connect "unix:$SOCK" > "$WORK/$1"
}

# expect FILE PATTERN MESSAGE [LOG...]: FILE (under $WORK) must match PATTERN;
# otherwise prints MESSAGE, FILE and each LOG, and fails.
expect() {
  local file=$1 pattern=$2 msg=$3
  shift 3
  grep -q -- "$pattern" "$WORK/$file" && return 0
  echo "FAIL: $msg"
  for f in "$file" "$@"; do cat "$WORK/$f"; done
  exit 1
}

# expect_ok FILE N MESSAGE [LOG...]: fsshell prints a bare "ok" per successful
# op and "<cmd>: E..." on failure, so all N commands must have printed "ok".
expect_ok() {
  local file=$1 n=$2 msg=$3
  shift 3
  if grep -q ': E' "$WORK/$file" || [ "$(grep -cx 'ok' "$WORK/$file")" -ne "$n" ]; then
    echo "FAIL: $msg"
    for f in "$file" "$@"; do cat "$WORK/$f"; done
    exit 1
  fi
}

# Committed units in GEN's recovery banner ("recovered N op(s) in M ...").
recovered_units() {
  sed -n 's/.* in \([0-9]*\) committed unit.*/\1/p' "$WORK/$1.log"
}

echo "--- stage 1: bounded durability refinement sweep ---"
# A private TMPDIR: under a parallel ctest, crash_injection_test itself may be
# running on the same fixed temp-file names.
TMPDIR="$WORK" ATOMFS_CRASH_TXNS=6 ATOMFS_CRASH_MAX_POINTS=64 \
  "$CRASH_TEST" --gtest_brief=1 || {
    echo "FAIL: bounded crash-injection sweep found a divergence"; exit 1; }

echo "--- stage 2: kill -9 a journaled atomfsd, recover, verify ---"
JOURNAL="$WORK/atomfs.wal"
start_daemon gen1 "$JOURNAL"

# One committed transaction: both ops must survive the crash together.
shell commit.out 'txbegin\nmkdir /cfg\nwrite /cfg/a committed-v1\ntxcommit\ncat /cfg/a\n'
expect commit.out 'committed-v1' "committed transaction not readable pre-crash"

# One transaction left open when its connection drops: nothing may survive.
shell open.out 'txbegin\nmkdir /lost\nwrite /lost/f never\n'

crash_daemon
start_daemon gen2 "$JOURNAL"
expect gen2.log 'recovered' "restart printed no recovery banner"

shell recovered.out 'cat /cfg/a\nstat /lost\nls /\n'
expect recovered.out 'committed-v1' "committed transaction lost across kill -9" gen2.log
expect recovered.out 'stat: ENOENT' "uncommitted transaction leaked across kill -9"
stop_daemon gen2

echo "--- stage 3: kill -9 across a forced checkpoint, recover, verify ---"
CKJOURNAL="$WORK/ckpt.wal"
start_daemon gen3 "$CKJOURNAL" --checkpoint-units 64

shell pre.out 'mkdir /pre\nwrite /pre/f before-checkpoint\n'
kill -HUP "$DAEMON_PID"   # force the checkpoint + WAL rotation now
for _ in $(seq 1 100); do
  grep -q 'checkpointed' "$WORK/gen3.log" && break; sleep 0.1
done
expect gen3.log 'checkpointed' "SIGHUP produced no checkpoint"
[ -f "$CKJOURNAL.ckpt" ] || {
  echo "FAIL: no checkpoint file next to the journal"; ls "$WORK"; exit 1; }

# Post-checkpoint suffix — committed, then checkpointed again through the
# wire op this time — then die without warning.
shell wire_ckpt.out 'txbegin\nmkdir /post\nwrite /post/f after-checkpoint\ntxcommit\ncheckpoint\n'
expect_ok wire_ckpt.out 4 "wire CHECKPOINT op did not succeed"
crash_daemon
start_daemon gen4 "$CKJOURNAL"

expect gen4.log 'checkpoint base' "restart did not recover from the checkpoint"
shell ckpt.out 'cat /pre/f\ncat /post/f\n'
expect ckpt.out 'before-checkpoint' "pre-checkpoint data lost across kill -9" gen4.log
expect ckpt.out 'after-checkpoint' "post-checkpoint suffix lost across kill -9" gen4.log

# The restarted daemon commits more and checkpoints over the wire, then dies.
# Its checkpoint must reuse no generation id, keep the recovered state (the
# mirror it materializes was seeded from recovery) and carry the recovered
# unit count forward.
shell gen4_ckpt.out 'mkdir /gen4\nwrite /gen4/f restarted-v4\ncheckpoint\n'
expect_ok gen4_ckpt.out 3 "restarted daemon could not commit + checkpoint" gen4.log
crash_daemon
start_daemon gen5 "$CKJOURNAL"

expect gen5.log 'checkpoint base' "gen5 did not recover from gen4's checkpoint"
shell gen5.out 'cat /pre/f\ncat /post/f\ncat /gen4/f\n'
for want in before-checkpoint after-checkpoint restarted-v4; do
  expect gen5.out "$want" "'$want' lost across the restarted daemon's checkpoint + kill -9" \
    gen5.log
done
GEN4_UNITS=$(recovered_units gen4)
GEN5_UNITS=$(recovered_units gen5)
[ -n "$GEN4_UNITS" ] && [ -n "$GEN5_UNITS" ] && [ "$GEN5_UNITS" -gt "$GEN4_UNITS" ] || {
  echo "FAIL: committed-unit count did not carry across the reopen" \
    "(gen4 ${GEN4_UNITS:-?}, gen5 ${GEN5_UNITS:-?})"
  cat "$WORK/gen4.log" "$WORK/gen5.log"; exit 1; }
stop_daemon gen5

echo "PASS: crash smoke (bounded sweep clean; committed txn survived kill -9, open txn invisible; checkpoint boundary survived kill -9, twice across a restart)"
