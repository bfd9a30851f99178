#!/usr/bin/env bash
# Crash-consistency + self-healing smoke test, run by the CI ``chaos-smoke``
# job.  Two legs, both fast (<2 min total):
#
# 1. The full crash-point sweep (``python -m repro.faults.chaos``): every
#    registered barrier in the write path is killed at, the store reopened,
#    and the invariants asserted (bitwise latest_valid, no orphan manifests,
#    journal fold convergence, recoverable daemon lock, re-runnable repair).
#    The sweep fails if any registered point lacks a scenario, so coverage
#    cannot rot.
# 2. An on-disk scrub/repair cycle through the CLI: build a replicated
#    store, corrupt EVERY chunk of one replica, prove ``qckpt fsck`` sees
#    the damage, ``qckpt scrub`` repairs 100% of it from the surviving
#    replica (quarantining the rotten bytes), and a final fsck + restore
#    show a clean, bitwise-restorable store.
# 3. The metadata-index lifecycle through the CLI: build an indexed
#    store, verify it with ``qckpt fsck --index``, DELETE the .db file,
#    and prove the next indexed open rebuilds it from the JSON files
#    with nothing lost (the index is a cache; the files are the truth).
#
# Run locally from the repo root:  bash tools/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

QCKPT="python -m repro.cli"
WORK=$(mktemp -d -t qckpt-chaos-XXXXXX)
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

echo "== crash-point sweep (every registered point, kill + reopen + assert)"
python -m repro.faults.chaos --list
python -m repro.faults.chaos

echo "== building a 2-replica store with 3 checkpoints"
python - "$WORK" <<'PY'
import sys

import numpy as np

from repro.core.snapshot import TrainingSnapshot
from repro.service.chunkstore import ChunkStore
from repro.storage.local import LocalDirectoryBackend
from repro.storage.replicated import ReplicatedBackend

work = sys.argv[1]
backend = ReplicatedBackend(
    [LocalDirectoryBackend(f"{work}/replA"), LocalDirectoryBackend(f"{work}/replB")],
    read_repair=False,
)
store = ChunkStore(backend, block_bytes=4096)
for step in (1, 2, 3):
    rng = np.random.default_rng(step)
    store.save_snapshot(
        "smoke",
        TrainingSnapshot(
            step=step,
            params=rng.normal(size=512),
            optimizer_state={"lr": 0.01},
            rng_state={"seed": step},
            model_fingerprint="chaos-smoke",
        ),
    )
PY

echo "== corrupting EVERY chunk of replica A"
python - "$WORK" <<'PY'
import sys

from repro.storage.local import LocalDirectoryBackend

replica = LocalDirectoryBackend(f"{sys.argv[1]}/replA")
chunks = replica.list("ch-")
assert chunks, "store has no chunks to corrupt"
for address in chunks:
    replica.write(address, b"total rot " + address.encode())
print(f"corrupted {len(chunks)} chunk(s)")
PY

echo "== fsck must report the damage (exit 1)"
if $QCKPT fsck "$WORK/replA" "$WORK/replB"; then
  echo "fsck missed injected corruption"; exit 1
fi

echo "== scrub must repair 100% from the surviving replica (exit 0)"
$QCKPT scrub "$WORK/replA" "$WORK/replB"

echo "== fsck must now be clean (exit 0)"
$QCKPT fsck "$WORK/replA" "$WORK/replB"

echo "== quarantined evidence must exist"
ls "$WORK/replA" | grep -q '^quarantine-ch-' \
  || { echo "no quarantine objects written"; exit 1; }

echo "== repaired store must restore bitwise at the newest step"
restored=$($QCKPT restore "$WORK/replA" --job smoke)
echo "$restored"
echo "$restored" | grep -q "at step 3" \
  || { echo "restore did not reach step 3 after repair"; exit 1; }

echo "== scrub/fsck --help audit"
$QCKPT scrub --help >/dev/null
$QCKPT fsck --help >/dev/null

echo "== metadata index: build an indexed store (journal pins + manifests)"
python - "$WORK" <<'PY'
import sys

import numpy as np

from repro import open_store
from repro.core.snapshot import TrainingSnapshot
from repro.storage import layout

root = f"{sys.argv[1]}/indexed"
store = open_store(root, shards=1, index=True, block_bytes=4096)
for step in (1, 2):
    rng = np.random.default_rng(step)
    store.save_snapshot(
        "idxsmoke",
        TrainingSnapshot(
            step=step,
            params=rng.normal(size=256),
            optimizer_state={"lr": 0.01},
            rng_state={"seed": step},
            model_fingerprint="chaos-smoke",
        ),
    )
journal = layout.placement_journal(
    root, owner="smoke", metadb=store.metadb, create=True
)
journal.pin("job-idxsmoke-ckpt-000002.json")
store.metadb.close()
PY

echo "== fsck --index must verify the live index (exit 0)"
$QCKPT fsck "$WORK/indexed" --index

echo "== deleting the index file: the store must not care"
rm -f "$WORK/indexed/.qckpt-meta.db" "$WORK/indexed/.qckpt-meta.db-wal" \
      "$WORK/indexed/.qckpt-meta.db-shm"
python - "$WORK" <<'PY'
import sys

from repro import open_store

root = f"{sys.argv[1]}/indexed"
store = open_store(root, index=True)  # fresh index file, rebuilt on open
assert store.latest("idxsmoke") == "ckpt-000002", store.latest("idxsmoke")
snapshot = store.load_snapshot("idxsmoke")
assert snapshot.step == 2, snapshot.step
assert "idxsmoke" in store.metadb.jobs(), "rebuilt index missing the job"
store.metadb.close()
print("index rebuilt from files: latest + restore intact")
PY

echo "== fsck --index must verify the rebuilt index (exit 0)"
$QCKPT fsck "$WORK/indexed" --index

echo "chaos smoke OK"
