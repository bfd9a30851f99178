#!/usr/bin/env bash
# Remote control-plane smoke test, run by the CI ``daemon-smoke`` job.
#
# Starts a fleet daemon with a TCP listener on localhost, then drives it
# from separate processes.  Through ``--connect`` (TCP, with a token):
# submits a 2-job workload with distinct priorities, preempts one job
# mid-run, polls status until both finish, verifies a wrong token is
# refused.  Through ``--control`` (the Unix socket ``daemon.sock`` in the
# control directory, no token): checks the socket is owner-only (0600),
# submits a third job, polls it to the finish and drains; no ``req-*`` /
# ``res-*`` object may ever appear in the control directory.  Then restores
# every job's final checkpoint through the unified pipeline (which verifies
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

CONTROL="$STORE/control"
no_request_files() {
  if compgen -G "$CONTROL/req-*" >/dev/null \
      || compgen -G "$CONTROL/res-*" >/dev/null; then
    echo "request/response files appeared in $CONTROL:"; ls "$CONTROL"; exit 1
  fi
}

echo "== the Unix socket is an owner-only socket"
[ -S "$CONTROL/daemon.sock" ] || { echo "no socket at $CONTROL/daemon.sock"; exit 1; }
mode=$(stat -c %a "$CONTROL/daemon.sock")
[ "$mode" = "600" ] || { echo "daemon.sock has mode $mode, want 600"; exit 1; }

echo "== submitting, polling and draining over --control (no token)"
$QCKPT daemon submit --control "$CONTROL" --job c \
  --steps "$STEPS" --qubits 2 --layers 1 --samples 16 --batch-size 4
no_request_files
for _ in $(seq 1 300); do
  status=$($QCKPT daemon status --control "$CONTROL" --timeout 10)
  no_request_files
  echo "$status" | grep -Eq "^c +finished" && break
  sleep 0.2
done
echo "$status"
echo "$status" | grep -Eq "^c +finished" || { echo "job c never finished"; exit 1; }
$QCKPT daemon drain --control "$CONTROL" --timeout 120
wait "$DAEMON_PID"
no_request_files

echo "== restoring every job (content-addressed blocks: bitwise verification)"
for job in a b c; do
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
