#!/bin/sh
# CLI wiring smoke test: the built nitro_monitor replays a capture into a
# live nitro_collector over a unix socket while checkpointing to a chain,
# then a second incarnation must restore from that chain
# (--require-restore) and export again.
#
# Usage: monitor_collector_smoke.sh NITRO_MONITOR NITRO_COLLECTOR CAPTURE
set -u
monitor=$1
collector=$2
capture=$3

work=$(mktemp -d "${TMPDIR:-/tmp}/nitro_cli_smoke.XXXXXX") || exit 1
sock="$work/collector.sock"
cpid=
cleanup() {
  if [ -n "$cpid" ]; then
    kill "$cpid" 2>/dev/null
    wait "$cpid" 2>/dev/null
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for f in "$work"/*.log; do
    [ -f "$f" ] || continue
    echo "--- $f" >&2
    cat "$f" >&2
  done
  exit 1
}

# --run-for-ms bounds the collector's life should this script die early.
"$collector" --listen "unix:$sock" --run-for-ms 60000 --interval-ms 60000 \
  > "$work/collector.log" 2>&1 &
cpid=$!
tries=0
while [ ! -S "$sock" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "collector did not listen on $sock"
  kill -0 "$cpid" 2>/dev/null || fail "collector exited early"
  sleep 0.1
done

run_monitor() {  # $1 = log name, rest = extra flags
  log="$work/$1.log"
  shift
  "$monitor" --ingest "pcap:$capture" --epochs 2 --checkpoint-dir "$work/ckpt" \
    --export-to "unix:$sock" --source-id 1 "$@" > "$log" 2>&1
}

run_monitor first || fail "first monitor exited with $?"
grep -q "^export: 2 epoch(s) acknowledged by the collector" "$work/first.log" ||
  fail "first monitor: epochs not acknowledged"

run_monitor second --require-restore || fail "second monitor exited with $?"
grep -q "^checkpoint: restored epoch 1 from chain" "$work/second.log" ||
  fail "second monitor did not restore from the checkpoint chain"
grep -q "^export: 2 epoch(s) acknowledged by the collector" "$work/second.log" ||
  fail "second monitor: epochs not acknowledged"

echo "PASS"
