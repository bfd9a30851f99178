#!/usr/bin/env bash
# Observability smoke test, run by the CI ``obs-smoke`` job.
#
# Starts a socket-serving fleet daemon, runs a short job, and checks the
# telemetry surfaces end to end: ``qckpt metrics --json`` over both the TCP
# (--connect) and file (--control) transports must parse and carry save
# latency histograms plus a dedup ratio, ``qckpt top`` must render one
# frame, and after a clean drain the persisted ``<store>/obs/registry.json``
# must answer ``qckpt metrics <store>`` offline.  Also asserts the trace
# log stitched the client submit and the daemon-side save into one trace.
#
# Run locally from the repo root:  bash tools/obs_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

QCKPT="python -m repro.cli"
STORE=$(mktemp -d -t qckpt-obs-smoke-XXXXXX)
TOKEN="obs-smoke-$$-$RANDOM"
STEPS=20

echo "== starting daemon on 127.0.0.1:0 (store: $STORE)"
$QCKPT daemon start "$STORE" --shards 1 --listen 127.0.0.1:0 --token "$TOKEN" &
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

echo "== submitting a short job and waiting for it to finish"
$QCKPT daemon submit --connect "$ADDR" --token "$TOKEN" --job smoke \
  --steps "$STEPS" --qubits 2 --layers 1 --samples 16 --batch-size 4
for _ in $(seq 1 300); do
  status=$($QCKPT daemon status --connect "$ADDR" --token "$TOKEN" --timeout 10)
  echo "$status" | grep -Eq "^smoke +finished" && break
  sleep 0.2
done
echo "$status" | grep -Eq "^smoke +finished" \
  || { echo "job never finished"; exit 1; }

check_metrics_json() {
  python -c '
import json, sys
response = json.load(sys.stdin)
assert response["ok"], response
snapshot = response["metrics"]
series = {(r["name"], tuple(sorted(r.get("labels", {}).items()))): r
          for r in snapshot["series"]}
save = series[("save.seconds", (("job", "smoke"),))]
assert save["type"] == "histogram" and save["count"] >= 1, save
assert sum(save["counts"]) == save["count"], save
assert any(n == "store.chunks_written" for n, _ in series), "no store series"
dedup = response["dedup_ratio"]
assert dedup > 0, dedup
print("    %s: ok (saves=%d, dedup=%.2fx)"
      % (sys.argv[1], save["count"], dedup))
' "$1"
}

echo "== qckpt metrics --json over TCP must parse with save + dedup series"
$QCKPT metrics --connect "$ADDR" --token "$TOKEN" --json \
  | check_metrics_json "tcp"

echo "== qckpt metrics --json over the file transport must agree"
$QCKPT metrics --control "$STORE/control" --json | check_metrics_json "file"

echo "== qckpt top renders one frame"
top=$($QCKPT top --connect "$ADDR" --token "$TOKEN" --iterations 1 --no-clear)
echo "$top"
echo "$top" | grep -q "smoke" || { echo "top did not list the job"; exit 1; }

echo "== qckpt health reports ok against the healthy daemon (exit 0)"
$QCKPT health --connect "$ADDR" --token "$TOKEN" | grep -q "health OK" \
  || { echo "live health was not OK"; exit 1; }

echo "== qckpt metrics --prom emits Prometheus exposition over TCP"
$QCKPT metrics --connect "$ADDR" --token "$TOKEN" --prom \
  | grep -q "^# TYPE qckpt_save_seconds histogram" \
  || { echo "prom exposition missing save histogram"; exit 1; }

echo "== draining (persists the registry snapshot)"
$QCKPT daemon drain --connect "$ADDR" --token "$TOKEN" --timeout 120
wait "$DAEMON_PID"

echo "== qckpt metrics <store> answers offline from the persisted registry"
offline=$($QCKPT metrics "$STORE")
echo "$offline"
echo "$offline" | grep -q "dedup ratio:" \
  || { echo "offline metrics missing dedup ratio"; exit 1; }

echo "== the trace log stitched client and daemon spans into one trace"
python - "$STORE/obs/trace.jsonl" <<'PY'
import json, sys
spans = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
by_trace = {}
for span in spans:
    by_trace.setdefault(span["trace"], set()).add(span["name"])
stitched = [
    trace for trace, names in by_trace.items()
    if "daemon.submit" in names and "store.save" in names
]
assert stitched, f"no trace joins daemon.submit with store.save: {by_trace}"
print(f"    trace {stitched[0]} covers submit -> save")
PY

echo "== qckpt health <store> answers offline from the persisted artifacts"
$QCKPT health "$STORE" | grep -q "health OK" \
  || { echo "offline health was not OK"; exit 1; }

echo "== qckpt profile prints a critical path with stage coverage"
profile=$($QCKPT profile "$STORE")
echo "$profile" | head -20
echo "$profile" | grep -q "critical path: " \
  || { echo "profile printed no critical path"; exit 1; }
echo "$profile" | grep -q "stage coverage: " \
  || { echo "profile printed no stage coverage"; exit 1; }

echo "== qckpt profile --folded emits flamegraph stacks"
$QCKPT profile "$STORE" --folded | grep -q "store.save;stage:" \
  || { echo "folded stacks missing save stages"; exit 1; }

echo "== health verdict flips under a fault storm, then recovers"
python - <<'PY'
import subprocess, sys, tempfile, threading, time

from repro.obs.health import HealthRule
from repro.obs.metrics import MetricsRegistry
from repro.reliability import RetryPolicy
from repro.service import ChunkStore, DaemonClient, FleetDaemon, WriterPool
from repro.service.daemon import DaemonConfig
from repro.storage.flaky import FlakyBackend
from repro.storage.layout import obs_dir
from repro.storage.memory import InMemoryBackend
from repro.storage.reliable import ReliableBackend

# Small windows so the storm shows up (and drains back out) in seconds.
RULES = [
    HealthRule(
        name="retry-storm", kind="rate", series="reliability.retries",
        op=">", value=0.2, window_seconds=4.0, severity="warn",
        reason="storage retries exceed 0.2/s",
    ),
    HealthRule(
        name="retry-flood", kind="rate", series="reliability.retries",
        op=">", value=2.0, window_seconds=4.0, severity="critical",
        reason="storage retries exceed 2/s",
    ),
]

root = tempfile.mkdtemp(prefix="qckpt-health-storm-")
registry = MetricsRegistry(enabled=True)
flaky = FlakyBackend(InMemoryBackend())
backend = ReliableBackend(
    flaky,
    retry=RetryPolicy(max_attempts=4, base_delay=0.005),
    metrics=registry,
)
store = ChunkStore(backend, block_bytes=2048, metrics=registry)
pool = WriterPool(workers=1, metrics=registry)
control = root + "/ctl"
daemon = FleetDaemon(
    store, pool, control,
    config=DaemonConfig(tick_seconds=0.005, obs_sample_seconds=0.1),
    metrics=registry, obs_dir=obs_dir(root + "/store"),
    health_rules=RULES,
)
thread = threading.Thread(target=daemon.serve, daemon=True)
thread.start()
client = DaemonClient(control, timeout=30.0)


def health_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "health", "--control", control],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


# Every other write errors once: retries climb fast, nothing exhausts.
flaky.arm_schedule("write", "error", first=1, count=1, period=2)
client.submit({"job_id": "stormy", "workload": "classifier",
               "target_steps": 2000, "checkpoint_every": 1,
               "params": {"qubits": 2, "layers": 1, "samples": 16,
                          "batch_size": 4}})

deadline = time.monotonic() + 60.0
verdict_rc, out = 0, ""
while time.monotonic() < deadline:
    verdict_rc, out = health_cli()
    if verdict_rc != 0:
        break
    time.sleep(0.3)
assert verdict_rc in (1, 2), f"health never left ok: {out}"
assert "retry-storm" in out or "retry-flood" in out, out
print(f"    storm verdict (exit {verdict_rc}):")
print("    " + out.strip().replace("\n", "\n    "))

flaky.disarm()
deadline = time.monotonic() + 60.0
while time.monotonic() < deadline:
    verdict_rc, out = health_cli()
    if verdict_rc == 0:
        break
    time.sleep(0.5)
assert verdict_rc == 0, f"health never recovered: {out}"
print("    recovered: " + out.splitlines()[0])

client.stop(timeout=15.0)
thread.join(timeout=30.0)
pool.close()
PY

echo "obs smoke OK"
