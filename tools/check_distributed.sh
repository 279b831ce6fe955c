#!/usr/bin/env bash
# End-to-end smoke of the distributed control plane, run from CTest and
# every CI leg (including TSan):
#
#   check_distributed.sh <capes_daemond> <capes_run> <workdir>
#
# 1. Equivalence: launch capes_daemond on an ephemeral loopback port,
#    drive a short three-cluster train/baseline/tuned workflow through
#    the agent (capes_run --transport=tcp:), and require the training fingerprint, the per-phase
#    CSVs AND the flight-recorder capture to be byte-identical to an
#    in-process `capes_run --transport=sync` run at the same seed (the
#    tcp: wire must be a transparent brain extension, routing each action
#    to the right one of several domains).
# 2. Robustness: kill -9 the agent mid-run and require the daemon to
#    exit on its own (link death must never hang it).
set -euo pipefail

# Absolute paths: the script cds into the scratch dir before launching.
DAEMOND="$(readlink -f "$1")"
CAPES_RUN="$(readlink -f "$2")"
WORK="$3"

RUN_ARGS="--workload=random:0.2 --workload=fileserver --workload=seqwrite \
  --train-ticks=40 --eval-ticks=30 --seed=1"

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

wait_for_port() {
  # The daemon prints "listening on HOST:PORT" (flushed) before accept.
  local log="$1" i
  for i in $(seq 1 100); do
    if grep -q "listening on" "$log" 2>/dev/null; then
      sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log" | head -n1
      return 0
    fi
    sleep 0.1
  done
  echo "daemon never printed its port" >&2
  cat "$log" >&2
  return 1
}

echo "== equivalence: loopback tcp vs in-process sync =="
"$DAEMOND" --port=0 > daemon.log 2>&1 &
DAEMON_PID=$!
PORT=$(wait_for_port daemon.log)

# shellcheck disable=SC2086
"$CAPES_RUN" --transport=tcp:host=127.0.0.1,port="$PORT" $RUN_ARGS \
  --csv=tcp --capture=tcp.cap | tee agent.log
wait "$DAEMON_PID"
cat daemon.log

# shellcheck disable=SC2086
"$CAPES_RUN" --transport=sync $RUN_ARGS --csv=sync --capture=sync.cap \
  | tee sync.log

TCP_FP=$(grep "training fingerprint" agent.log)
SYNC_FP=$(grep "training fingerprint" sync.log)
DAEMON_FP=$(grep "training fingerprint" daemon.log)
echo "agent : $TCP_FP"
echo "daemon: $DAEMON_FP"
echo "sync  : $SYNC_FP"
if [ "$TCP_FP" != "$SYNC_FP" ] || [ "$DAEMON_FP" != "$SYNC_FP" ]; then
  echo "FAIL: tcp loopback fingerprint differs from in-process sync" >&2
  exit 1
fi
for phase in training baseline tuned; do
  cmp "tcp_${phase}.csv" "sync_${phase}.csv" || {
    echo "FAIL: ${phase} CSV differs between tcp and sync" >&2
    exit 1
  }
done
cmp tcp.cap sync.cap || {
  echo "FAIL: agent-side capture differs from the in-process sync capture" >&2
  exit 1
}
if ! grep -q "control network (tcp): 0 messages dropped, link alive" agent.log; then
  echo "FAIL: loopback run reported message loss" >&2
  exit 1
fi

echo "== robustness: kill -9 the agent mid-run, daemon must exit =="
"$DAEMOND" --port=0 --idle-timeout-ms=5000 > daemon_kill.log 2>&1 &
DAEMON_PID=$!
PORT=$(wait_for_port daemon_kill.log)
"$CAPES_RUN" --transport=tcp:host=127.0.0.1,port="$PORT" --workload=random:0.2 \
  --train-ticks=100000 --eval-ticks=10 --seed=1 > agent_kill.log 2>&1 &
AGENT_PID=$!
# Let the session get well into the training phase before the kill.
sleep 2
kill -9 "$AGENT_PID" 2>/dev/null || true
wait "$AGENT_PID" 2>/dev/null || true

# The daemon must notice the dead link (EOF) and exit by itself.
for i in $(seq 1 150); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "FAIL: daemon still running 15s after its agent was killed" >&2
  kill -9 "$DAEMON_PID"
  exit 1
fi
wait "$DAEMON_PID" 2>/dev/null || true
if ! grep -q "link death" daemon_kill.log; then
  echo "FAIL: daemon did not report link death" >&2
  cat daemon_kill.log >&2
  exit 1
fi
cat daemon_kill.log

echo "distributed smoke OK"
