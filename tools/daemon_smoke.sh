#!/usr/bin/env bash
# Remote control-plane smoke test, run by the CI ``daemon-smoke`` job.
#
# Starts a socket-serving fleet daemon on localhost, then drives it purely
# through ``--connect`` (the TCP transport): submits a 2-job workload with
# distinct priorities, preempts one job mid-run, polls status until both
# finish, verifies a wrong token is refused, drains remotely, and restores
# both jobs' final checkpoints through the unified pipeline (which verifies
# every block against its content address — bitwise fidelity, not just
# presence).  Ends with a --help exit-0 audit of every daemon verb.
#
# Run locally from the repo root:  bash tools/daemon_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

QCKPT="python -m repro.cli"
STORE=$(mktemp -d -t qckpt-smoke-XXXXXX)
TOKEN="smoke-$$-$RANDOM"
STEPS=30

echo "== starting daemon on 127.0.0.1:0 (store: $STORE)"
# Port 0 lets the daemon's own bind pick the port (no probe-then-bind
# race); the resolved address is advertised in daemon.json.
$QCKPT daemon start "$STORE" --listen 127.0.0.1:0 --token "$TOKEN" &
DAEMON_PID=$!
cleanup() { kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$STORE"; }
trap cleanup EXIT

echo "== discovering the bound address from daemon.json"
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(python -c 'import json,sys
try:
    print(json.load(open(sys.argv[1])).get("listen", ""))
except Exception:
    print("")' "$STORE/control/daemon.json" 2>/dev/null)
  if [ -n "$ADDR" ] && [ "${ADDR##*:}" != "0" ]; then
    break
  fi
  ADDR=""
  sleep 0.2
done
[ -n "$ADDR" ] || { echo "daemon never advertised a socket address"; exit 1; }
echo "daemon listening on $ADDR"

echo "== waiting for the daemon to answer over TCP"
for _ in $(seq 1 100); do
  if $QCKPT daemon status --connect "$ADDR" --token "$TOKEN" --timeout 2 \
      >/dev/null 2>&1; then
    break
  fi
  sleep 0.2
done
$QCKPT daemon status --connect "$ADDR" --token "$TOKEN" --timeout 5 >/dev/null

echo "== submitting a 2-job workload remotely (priorities 2 and 1)"
$QCKPT daemon submit --connect "$ADDR" --token "$TOKEN" --job a \
  --steps "$STEPS" --priority 2 --qubits 2 --layers 1 --samples 16 --batch-size 4
$QCKPT daemon submit --connect "$ADDR" --token "$TOKEN" --job b \
  --steps "$STEPS" --priority 1 --qubits 2 --layers 1 --samples 16 --batch-size 4

echo "== preempting job a over TCP (it must reincarnate from the store)"
if ! out=$($QCKPT daemon preempt --connect "$ADDR" --token "$TOKEN" --job a 2>&1); then
  # Losing the race against a fast finish is fine; anything else is not.
  echo "$out" | grep -q "not running" || { echo "$out"; exit 1; }
fi
echo "${out:-"(job a already finished)"}"

echo "== polling status until both jobs finish"
for _ in $(seq 1 300); do
  status=$($QCKPT daemon status --connect "$ADDR" --token "$TOKEN" --timeout 10)
  if echo "$status" | grep -Eq "^a +finished" \
      && echo "$status" | grep -Eq "^b +finished"; then
    break
  fi
  sleep 0.2
done
echo "$status"
echo "$status" | grep -Eq "^a +finished" || { echo "job a never finished"; exit 1; }
echo "$status" | grep -Eq "^b +finished" || { echo "job b never finished"; exit 1; }

echo "== a wrong token must be refused"
if $QCKPT daemon status --connect "$ADDR" --token "not-the-token" --timeout 2 \
    >/dev/null 2>&1; then
  echo "daemon accepted a wrong auth token"; exit 1
fi

echo "== draining remotely"
$QCKPT daemon drain --connect "$ADDR" --token "$TOKEN" --timeout 120
wait "$DAEMON_PID"

echo "== restoring both jobs (content-addressed blocks: bitwise verification)"
for job in a b; do
  restored=$($QCKPT restore "$STORE" --job "$job")
  echo "$restored"
  echo "$restored" | grep -q "at step $STEPS" \
    || { echo "job $job did not restore at step $STEPS"; exit 1; }
done

echo "== qckpt daemon * --help audit"
for verb in start submit status preempt drain stop; do
  $QCKPT daemon "$verb" --help >/dev/null
done

echo "daemon smoke OK"
