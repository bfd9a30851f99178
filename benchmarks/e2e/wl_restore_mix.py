"""Workload ``restore_mix``: reads beside writes on a pre-populated store.

Set-up fills a store with several jobs' checkpoints whose 64 KiB blocks
partly repeat between checkpoints and between jobs.  The timed phase is one
client thread issuing restores back to back (closed loop): newest-valid full
restores, parameter-only warm starts, historic loads ("restore the best" of
an early stopper) and cold discoveries through a freshly reopened store,
with one background save per block of ops through a ``WriterPool(1)``.
Every restored tensor is compared bitwise with the generator's own copy.
Almost no quantum work runs here.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.restore import WARM_START_TENSORS
from repro.core.snapshot import TrainingSnapshot
from repro.ml.optimizers import Adam
from repro.ml.rng import capture_rng_state
from repro.service.pool import WriterPool

from harness import (
    close_store,
    open_store,
    stored_bytes,
    stratified_choices,
)
from probes import ChannelProbe, Recorder, percentile

#: Op kinds per block of twenty: 55% newest-valid full restores, 25%
#: parameter-only, 15% historic, 5% cold discovery; one background save
#: follows every block.
OP_MIX = (("full", 11), ("params", 5), ("historic", 3), ("cold", 1))
#: After every block the client stands still for this many full restores
#: with no save running (the overhead denominator, sampled in the same
#: stretches of machine weather as the block's own restores).
REFERENCE_OPS_PER_BLOCK = 3


@dataclass(frozen=True)
class RestoreMixConfig:
    n_qubits: int  # statevector of 2**n complex128 amplitudes
    jobs: int
    checkpoints: int  # per job, written by set-up
    n_params: int = 64
    block_amplitudes: int = 4096  # 64 KiB of complex128: one store block


CONFIGS = {
    "full": RestoreMixConfig(n_qubits=16, jobs=4, checkpoints=24),
    "smoke": RestoreMixConfig(n_qubits=13, jobs=2, checkpoints=4),
}


class SnapshotGenerator:
    """Seeded checkpoints, and the copy every restore is checked against.

    A job's statevector is a row of blocks.  All jobs start from one shared
    row; each new checkpoint of a job redraws two of its blocks (walking
    round the row), so consecutive checkpoints share most blocks and jobs
    share the blocks neither has redrawn yet.  Only block ids are kept per
    checkpoint; the expected tensor is reassembled on demand.
    """

    def __init__(self, cfg: RestoreMixConfig, seed: int):
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, 3])
        self.blocks: List[np.ndarray] = []
        n_blocks = max(1, (1 << cfg.n_qubits) // cfg.block_amplitudes)
        self.block_len = (1 << cfg.n_qubits) // n_blocks
        base = tuple(self._new_block() for _ in range(n_blocks))
        self.rows: Dict[str, Tuple[int, ...]] = {
            f"job{j}": base for j in range(cfg.jobs)
        }
        self.cursor = {job: 3 * j for j, job in enumerate(self.rows)}
        # job -> [(block ids, snapshot without statevector)], by sequence.
        self.history: Dict[str, List[Tuple[Tuple[int, ...], TrainingSnapshot]]] = {
            job: [] for job in self.rows
        }
        self.optimizer = Adam(lr=0.05)

    def _new_block(self) -> int:
        amplitudes = self.rng.standard_normal(
            2 * self.block_len
        ).view(np.complex128)
        self.blocks.append(amplitudes)
        return len(self.blocks) - 1

    def statevector(self, ids: Tuple[int, ...]) -> np.ndarray:
        return np.concatenate([self.blocks[i] for i in ids])

    def next_snapshot(self, job: str) -> TrainingSnapshot:
        """The job's next checkpoint (recorded as its newest sequence)."""
        row = list(self.rows[job])
        for _ in range(min(2, len(row))):
            row[self.cursor[job] % len(row)] = self._new_block()
            self.cursor[job] += 1
        self.rows[job] = tuple(row)
        step = 10 * (len(self.history[job]) + 1)
        params = 0.1 * self.rng.standard_normal(self.cfg.n_params)
        self.optimizer.step(params, self.rng.standard_normal(self.cfg.n_params))
        lean = TrainingSnapshot(
            step=step,
            params=params,
            optimizer_state=self.optimizer.state_dict(),
            rng_state=capture_rng_state(self.rng),
            model_fingerprint=f"restore-mix-{self.cfg.n_qubits}q",
            loss_history=self.rng.standard_normal(step).cumsum(),
        )
        self.history[job].append((self.rows[job], lean))
        return self.expected(job, len(self.history[job]))

    def expected(self, job: str, seq: int) -> TrainingSnapshot:
        """The generator's copy of checkpoint ``seq`` (1-based) of ``job``."""
        ids, lean = self.history[job][seq - 1]
        full = lean.copy()
        full.statevector = self.statevector(ids)
        return full


def _seq_of(ckpt_id: str) -> int:
    return int(ckpt_id.rsplit("-", 1)[1])


class RestoreMix:
    def __init__(self, cfg: RestoreMixConfig, seed: int, workdir: str,
                 rec: Recorder, corrupt: bool = False):
        self.cfg = cfg
        self.seed = int(seed)
        self.rec = rec
        self.corrupt = corrupt
        self.store_dir = os.path.join(workdir, "store")
        self.store = None
        self.pool = None

    def setup(self) -> None:
        """Pre-populate the store, then reopen it as the timed phase's store."""
        setup_rec = Recorder(tracing=False)  # set-up saves are not samples
        self.gen = SnapshotGenerator(self.cfg, self.seed)
        store = open_store(self.store_dir, setup_rec)
        for _ in range(self.cfg.checkpoints):
            for job in self.gen.rows:
                store.save_snapshot(job, self.gen.next_snapshot(job))
        close_store(store)
        # The bytes they stored are counted at the end, so are their logical bytes.
        self.rec.count("logical_bytes", setup_rec.counts["logical_bytes"])
        self.store = open_store(self.store_dir, self.rec, self.corrupt)
        self.pool = WriterPool(1)
        self.channels = {
            job: ChannelProbe(self.pool.channel(job), self.rec)
            for job in self.gen.rows
        }

    # -- ops ----------------------------------------------------------------------
    # Each op times its calls into the store as one "request" and returns the
    # bitwise check of what it got, which the loop runs on no one's time.

    def _floor(self, job: str) -> int:
        """Durability floor: the newest checkpoint of ``job`` known durable."""
        return self.channels[job].acked or self.cfg.checkpoints

    def _save_in_flight(self) -> bool:
        return any(channel.in_flight() for channel in self.channels.values())

    def _check_snapshot(self, job: str, ckpt_id, snapshot, floor: int) -> None:
        ok = snapshot is not None and _seq_of(ckpt_id) >= floor
        if ok:
            ok = snapshot == self.gen.expected(job, _seq_of(ckpt_id))
        self.rec.check(ok, f"full restore of {job} {ckpt_id} is not bitwise")

    def _full(self, job: str) -> Callable[[], None]:
        floor = self._floor(job)
        beside = self._save_in_flight()
        started = time.perf_counter()
        ckpt_id, snapshot, _ = self.store.latest_valid(job)
        seconds = time.perf_counter() - started
        self.rec.add("request", seconds)
        if beside and self._save_in_flight():
            # A save ran from before this restore began until after it ended.
            self.rec.add("restore_beside_save", seconds)
        return lambda: self._check_snapshot(job, ckpt_id, snapshot, floor)

    def _params(self, job: str) -> Callable[[], None]:
        floor = self._floor(job)
        with self.rec.timed("request"):
            ckpt_id, tensors, _ = self.store.latest_valid_partial(
                job, WARM_START_TENSORS
            )

        def check() -> None:
            ok = tensors is not None and _seq_of(ckpt_id) >= floor
            if ok:
                expected = self.gen.history[job][_seq_of(ckpt_id) - 1][1].params
                ok = tensors["params"].tobytes() == expected.tobytes()
            self.rec.check(ok, f"params restore of {job} {ckpt_id} is not bitwise")

        return check

    def _historic(self, job: str, rng: np.random.Generator) -> Callable[[], None]:
        seq = int(rng.integers(1, self.cfg.checkpoints + 1))
        with self.rec.timed("request"):
            snapshot = self.store.load_snapshot(job, f"ckpt-{seq:06d}")
        return lambda: self.rec.check(
            snapshot == self.gen.expected(job, seq),
            f"historic restore of {job} ckpt {seq} is not bitwise",
        )

    def _cold(self, job: str) -> Callable[[], None]:
        """Cold discovery: a store reopened from the directory, then the
        newest valid checkpoint — a recovery without a trainer.

        As after a crash, no save is in flight when the directory is opened
        again: a second opener reconciling the index while a first one
        commits is a two-process case this benchmark leaves out.
        """
        with self.rec.timed("bench.cold_drain"):
            for channel in self.channels.values():
                channel.drain()
        with self.rec.timed("request"), self.rec.timed("recover"):
            store = open_store(self.store_dir, self.rec, self.corrupt)
            floor = self._floor(job)
            ckpt_id, snapshot, _ = store.latest_valid(job)
        with self.rec.timed("bench.cold_close"):
            close_store(store)
        return lambda: self._check_snapshot(job, ckpt_id, snapshot, floor)

    def _background_save(self, job: str) -> None:
        snapshot = self.gen.next_snapshot(job)
        channel = self.channels[job]
        channel.tag = len(self.gen.history[job])
        store = self.store
        channel.submit(lambda: store.save_snapshot(job, snapshot))

    def _reference_ops(self, rng: np.random.Generator) -> None:
        """Full restores with no save in flight, not sampled as ops."""
        jobs = list(self.gen.rows)
        for channel in self.channels.values():
            channel.drain()
        for _ in range(REFERENCE_OPS_PER_BLOCK):
            job = jobs[int(rng.integers(len(jobs)))]
            # No span: the traced run's stage sums are the sampled ops' only.
            started = time.perf_counter()
            ckpt_id, snapshot, _ = self.store.unprobed.latest_valid(job)
            self.rec.add("bare_restore", time.perf_counter() - started)
            self.rec.tick("reference")
            self._check_snapshot(job, ckpt_id, snapshot, 1)

    # -- the timed phase -------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        rec = self.rec
        self.thread = threading.get_ident()
        rng = np.random.default_rng([self.seed, 4])
        kinds = stratified_choices(rng, OP_MIX)
        jobs = list(self.gen.rows)
        block_ops = sum(count for _, count in OP_MIX)

        elapsed = 0.0  # the client's own time: its pieces, summed
        ops = 0
        rec.tick("pause")  # the first op's piece starts here
        while True:
            kind = next(kinds)
            job = jobs[int(rng.integers(len(jobs)))]
            if kind == "full":
                check = self._full(job)
            elif kind == "params":
                check = self._params(job)
            elif kind == "historic":
                check = self._historic(job, rng)
            else:
                check = self._cold(job)
            elapsed += rec.tick("loop")
            check()
            rec.cut("pause")  # the bitwise check is the harness's time
            ops += 1
            if ops % block_ops == 0:
                # The pause: idle reference restores, then the next block's
                # background save.
                self._reference_ops(rng)
                if elapsed >= seconds:
                    break
                self._background_save(jobs[int(rng.integers(len(jobs)))])
                rec.cut("pause")
        self.ops = ops

    def results(self) -> Dict:
        rec, ops = self.rec, self.ops
        wall, own = rec.pieces_seconds(self.thread, "loop")
        job = next(iter(self.gen.rows))
        full_plan = self.store.plan_restore(job)
        params_plan = self.store.plan_restore(job, names=WARM_START_TENSORS)
        return {
            "ops": ops,
            "loop_wall": wall,
            "loop_seconds": own,
            "request_s": percentile(rec.calibrated("request"), 50.0),
            "bare_op_s": percentile(rec.calibrated("bare_restore"), 50.0),
            "foreground_op_s": percentile(
                rec.calibrated("restore_beside_save"), 50.0
            ),
            "stored_bytes": stored_bytes(self.store),
            "threads_wall": {
                "train": wall,
                "named": rec.total("request")
                + rec.total("bench.cold_drain")
                + rec.total("bench.cold_close"),
            },
            "layers": {
                "core.restore.params_fetch_bytes_frac": (
                    params_plan.fetch_bytes / full_plan.fetch_bytes
                ),
            },
            "pool_workers": 1,
            "info": {
                "ops": ops,
                "background_saves": rec.n("save_commit"),
                "restores_beside_a_save": rec.n("restore_beside_save"),
                "checkpoints_preloaded": self.cfg.jobs * self.cfg.checkpoints,
                "snapshot_bytes": self.gen.expected(job, 1).nbytes(),
            },
        }

    def close(self) -> None:
        if self.pool is not None:
            for channel in self.channels.values():
                channel.abandon()
            self.pool.close()
        if self.store is not None:
            close_store(self.store)


def build(name: str, scale: str, seed: int, workdir: str, rec: Recorder,
          corrupt: bool) -> RestoreMix:
    return RestoreMix(CONFIGS[scale], seed, workdir, rec, corrupt)
