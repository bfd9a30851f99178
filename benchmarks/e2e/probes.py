"""Measuring the program from outside: a sample recorder, the yardstick clock
its samples are read on, and timing proxies.

Nothing here reaches into ``repro``'s private state.  Every proxy is handed
to the program through a constructor argument the program already has (the
``StorageBackend`` and ``MetaDB`` of a ``ChunkStore``, the store and channel
of a ``ServiceCheckpointManager``, the pool of a ``FleetDaemon``, the model
and optimizer of a ``Trainer``) and forwards every attribute it does not
time, so the program cannot tell it from the real object.

With tracing on, the recorder also installs a ``MemoryTraceSink`` through
the public ``repro.obs.trace`` API and opens one span per timed call.  The
program's own ``store.save`` / ``store.restore`` / ``pool.task`` spans then
nest under the benchmark's spans by ambient propagation, which is how the
per-stage attribution (serialize, hash, encode, write, manifest; plan, fetch,
verify, assemble) is read without touching a program file.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

#: Percentiles a timing may be reported at, lowest first.  A percentile is
#: reported only when at least TAIL_SAMPLES samples lie beyond it.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_SAMPLES = 10


def percentile(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100); 0.0 when empty."""
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def supported_percentile(n: int) -> float:
    """Highest ladder percentile with >= TAIL_SAMPLES samples beyond it."""
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
            best = q
    return best


class Yardstick:
    """The unit of the benchmark's clock: a fixed piece of work that owes
    nothing to ``repro`` — interpreter bytecode, complex multiply-adds over
    16 Ki amplitudes, one zlib-6 pass and one SHA-256 over 16 KiB — run by a
    measuring thread right after the operation it has just timed.

    The sandbox's virtual CPUs slow down and speed up by a third, each on its
    own and from one tenth of a second to the next (two pinned copies of one
    kernel: correlation -0.1, coefficient of variation 0.3 in one-second
    bins), so only work done on the same thread at the same moment tells how
    slow the measured operation's CPU was.  A run is timed in the thread's
    own CPU time: waiting for a core or for the interpreter lock is the
    program's behaviour and stays in the sample, not in the unit.

    It must never change: one run is NOMINAL_SECONDS of every reported time.
    """

    NOMINAL_SECONDS = 0.0008

    def __init__(self) -> None:
        rng = np.random.default_rng(20250925)
        self._a = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
        self._buffer = rng.standard_normal(2048).tobytes()

    def run(self) -> float:
        started = time.thread_time()
        total = 0
        for i in range(2000):
            total += i & 7
        a = self._a
        for _ in range(10):
            b = a * a + a
        del b
        zlib.compress(self._buffer, 6)
        hashlib.sha256(self._buffer).digest()
        return time.thread_time() - started


class Tape:
    """One thread's time line, cut into pieces that each end with a run of
    the yardstick: when the piece ended, how long it lasted and how much of
    that the thread spent on a CPU (the yardstick's own time left out of
    both), what the yardstick read, and what the piece was for."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.yards: List[float] = []
        self.labels: List[str] = []
        self.resumed = time.perf_counter()
        self.cpu_resumed = time.thread_time()

    def close_piece(self, label: str) -> float:
        """Called on the tape's own thread; returns the piece's wall seconds."""
        now, cpu_now = time.perf_counter(), time.thread_time()
        self.ends.append(now)
        self.walls.append(now - self.resumed)
        self.cpus.append(cpu_now - self.cpu_resumed)
        self.labels.append(label)
        self.resumed, self.cpu_resumed = now, cpu_now
        return self.walls[-1]

    def factors(self) -> List[float]:
        """Per piece: what a second of it is worth on the yardstick clock.

        The piece's CPU time is divided by its *slowdown* — the median
        yardstick reading of the piece and its two neighbours (one reading is
        itself a noisy sample) over nominal.  The rest of the piece the
        thread spent waiting (for a flush, a lock, another thread's work),
        which this thread's CPU did not slow down: it counts as it is.
        """
        out = []
        for i, (wall, cpu) in enumerate(zip(self.walls, self.cpus)):
            slowdown = (
                percentile(self.yards[max(0, i - 1) : i + 2], 50.0)
                / Yardstick.NOMINAL_SECONDS
            )
            cpu = min(cpu, wall)
            out.append((cpu / slowdown + wall - cpu) / wall if wall > 0 else 1.0)
        return out


class Recorder:
    """Thread-safe store of timing samples, counts and correctness checks,
    and the yardstick tapes the samples are read against."""

    def __init__(self, tracing: bool):
        self.tracing = bool(tracing)
        #: name -> [(perf_counter() when the sample ended, seconds, thread)]
        self.samples: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)
        self.yardstick = Yardstick()
        self.tapes: Dict[int, Tape] = {}
        #: sample name -> the thread whose tape it is read on (see calibrated).
        self.read_on: Dict[str, int] = {}
        self._dropped_spans: List[Tuple[float, float]] = []  # epoch windows
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)  # not times
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sink = trace.MemoryTraceSink(capacity=1 << 20) if tracing else None
        #: Handed to every store the run opens (``ChunkStore(metrics=...)``).
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._op = threading.local()

    # -- samples and counts -----------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        sample = (time.perf_counter(), seconds, threading.get_ident())
        with self._lock:
            self.samples[name].append(sample)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(value)

    def keep_only(self, start: float, end: float) -> None:
        """Forget every timing sample, and every span, taken so far that
        ended outside ``[start, end]`` (``perf_counter`` readings)."""
        now = time.perf_counter()
        with self._lock:
            for name, samples in self.samples.items():
                self.samples[name] = [s for s in samples if start <= s[0] <= end]
        # Spans carry epoch times; both clocks are read here, together.
        to_epoch = time.time() - now
        self._dropped_spans.append((0.0, start + to_epoch))
        self._dropped_spans.append((end + to_epoch, now + to_epoch))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def raw(self, name: str) -> List[float]:
        """Wall-clock seconds of every sample of ``name``."""
        return [sample[1] for sample in self.samples.get(name, ())]

    def total(self, name: str) -> float:
        """Summed wall-clock seconds (for shares of a wall-clock interval)."""
        return sum(self.raw(name))

    def n(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    # -- the yardstick clock --------------------------------------------------------

    def tick(self, label: str = "loop") -> float:
        """Close the calling thread's current piece under ``label`` with a
        run of the yardstick; returns the piece's wall seconds.  The run's
        own time belongs to no piece."""
        ident = threading.get_ident()
        tape = self.tapes.get(ident)
        if tape is None:
            with self._lock:
                tape = self.tapes.setdefault(ident, Tape())
        piece = tape.close_piece(label)
        tape.yards.append(self.yardstick.run())
        tape.resumed, tape.cpu_resumed = time.perf_counter(), time.thread_time()
        return piece

    def cut(self, label: str) -> float:
        """Close the calling thread's current piece under ``label`` without
        a run of the yardstick (it keeps the reading before it); returns the
        piece's wall seconds.  For time that is the harness's own."""
        tape = self.tapes[threading.get_ident()]
        piece = tape.close_piece(label)
        tape.yards.append(tape.yards[-1])
        return piece

    def calibrated(self, name: str) -> List[float]:
        """Seconds on the yardstick clock of every sample of ``name``: each
        multiplied by the factor of the piece it ended in, on the tape of
        the thread that took it — or of ``read_on[name]``, when the time was
        spent on another thread than the one that read the clock (a control
        request waits for the daemon's loop).  A thread that never ran the
        yardstick reads wall clock."""
        other = self.read_on.get(name)
        factors: Dict[int, List[float]] = {}
        out = []
        for ended, seconds, ident in self.samples.get(name, ()):
            tape = self.tapes.get(ident if other is None else other)
            if tape is None or not tape.ends:
                out.append(seconds)
                continue
            if id(tape) not in factors:
                factors[id(tape)] = tape.factors()
            piece = min(bisect.bisect_left(tape.ends, ended), len(tape.ends) - 1)
            out.append(seconds * factors[id(tape)][piece])
        return out

    def pieces_seconds(self, thread: int, label: str, start: float = 0.0,
                       end: float = float("inf")) -> Tuple[float, float]:
        """``(wall, yardstick-clock)`` seconds of the pieces of ``thread``'s
        tape that carry ``label`` and ended within ``[start, end]``."""
        tape = self.tapes.get(thread)
        if tape is None:
            return 0.0, 0.0
        wall = own = 0.0
        for ended, seconds, tag, factor in zip(
            tape.ends, tape.walls, tape.labels, tape.factors()
        ):
            if tag == label and start <= ended <= end:
                wall += seconds
                own += seconds * factor
        return wall, own

    def median_ms(self, name: str) -> float:
        return self.percentile_ms(name, 50.0)

    def percentile_ms(self, name: str, q: float) -> float:
        """Percentile ``q`` of ``name`` in milliseconds of the yardstick clock."""
        return 1e3 * percentile(self.calibrated(name), q)

    def yardstick_summary(self) -> Dict[str, float]:
        """The yardstick's own readings over the run, all threads: the run's
        weather, and the one number that tells if a change made the *unit*
        slower (more contention) rather than the program faster."""
        yards = [y for tape in self.tapes.values() for y in tape.yards]
        return {
            "runs": len(yards),
            "p10_ms": 1e3 * percentile(yards, 10.0),
            "p50_ms": 1e3 * percentile(yards, 50.0),
            "p90_ms": 1e3 * percentile(yards, 90.0),
            "nominal_ms": 1e3 * Yardstick.NOMINAL_SECONDS,
        }

    # -- correctness gate ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """One attempted operation or correctness check; records a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    # -- spans --------------------------------------------------------------------

    @contextmanager
    def timed(self, name: str, tick: Optional[str] = None) -> Iterator[None]:
        """Time a block into ``samples[name]`` (a span too when tracing);
        with ``tick``, run the yardstick right after, under that label."""
        with trace.span_scope(name) if self.tracing else nullcontext():
            started = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - started)
        if tick is not None:
            self.tick(tick)

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Mark this thread as inside a save or a restore, so backend and
        index calls made on it are charged to that kind of operation."""
        previous = getattr(self._op, "kind", None)
        self._op.kind = kind
        try:
            yield
        finally:
            self._op.kind = previous

    def op_kind(self) -> str:
        kind = getattr(self._op, "kind", None)
        if kind is not None:
            return kind
        # The restore executor fetches blocks on its own named threads.
        if threading.current_thread().name.startswith("qckpt-restore"):
            return "restore"
        return "other"

    def install_sink(self):
        """Install the trace sink (tracing only); returns the previous one."""
        if self.sink is None:
            return None
        return trace.set_trace_sink(self.sink)

    def span_records(self) -> List[dict]:
        if self.sink is None:
            return []

        def kept(record: dict) -> bool:
            ended = record["start"] + record["duration_ms"] / 1e3
            return not any(a <= ended < b for a, b in self._dropped_spans)

        return [record for record in self.sink.records() if kept(record)]

    def forget_spans(self) -> None:
        """Empty the sink (set-up is over; its spans are not the run's)."""
        if self.sink is not None:
            self.sink.clear()


class TimingProxy:
    """Forwards every attribute of ``target``; times the methods in ``timed``
    (method name -> sample name)."""

    def __init__(self, target, rec: Recorder, timed: Dict[str, str]):
        self._target = target
        self._rec = rec
        self._timed = timed

    @property
    def unprobed(self):
        """The object behind the proxy, for calls that must not be sampled."""
        return self._target

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        sample = self._timed.get(name)
        if sample is None:
            return attr
        rec = self._rec

        def call(*args, **kwargs):
            with rec.timed(sample):
                return attr(*args, **kwargs)

        return call


def model_probe(model, rec: Recorder) -> TimingProxy:
    return TimingProxy(
        model,
        rec,
        {
            "loss_and_grad": "autodiff.loss_and_grad",
            "statevector": "quantum.sim_forward",
        },
    )


def optimizer_probe(optimizer, rec: Recorder) -> TimingProxy:
    return TimingProxy(optimizer, rec, {"step": "ml.optimizer_step"})


def trainer_probe(trainer, rec: Recorder) -> TimingProxy:
    return TimingProxy(
        trainer,
        rec,
        {
            "train_step": "ml.trainer.train_step",
            "capture": "core.snapshot.capture",
            "restore": "ml.trainer.restore",
        },
    )


class CallCounterProxy:
    """Backend / index proxy (tracing only): per call it records wall time,
    bytes and failures, charged to the save or restore running on the
    calling thread.  Spans are opened only under an ambient span, so block
    fetches on the restore executor's threads stay plain timers."""

    def __init__(self, target, rec: Recorder, layer: str, byte_methods=()):
        self._target = target
        self._rec = rec
        self._layer = layer
        self._byte_methods = frozenset(byte_methods)

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr
        rec = self._rec
        layer = self._layer
        counts_bytes = name in self._byte_methods

        def call(*args, **kwargs):
            kind = rec.op_kind()
            key = f"{layer}.{name}.{kind}"
            nested = trace.current_span() is not None
            started = time.perf_counter()
            try:
                if nested:
                    with trace.span_scope(f"{layer}.{name}"):
                        result = attr(*args, **kwargs)
                else:
                    result = attr(*args, **kwargs)
            except Exception:
                rec.count(f"{layer}.errors")
                raise
            finally:
                rec.count(f"{key}.seconds", time.perf_counter() - started)
                rec.count(f"{key}.calls")
            if counts_bytes:
                data = result if name.startswith("read") else args[1]
                rec.count(f"{key}.bytes", len(data))
            return result

        return call


def backend_probe(backend, rec: Recorder) -> CallCounterProxy:
    return CallCounterProxy(
        backend,
        rec,
        "storage.backend",
        byte_methods=("write", "read", "read_range"),
    )


def metadb_probe(metadb, rec: Recorder) -> CallCounterProxy:
    return CallCounterProxy(metadb, rec, "storage.metadb")


class StoreProbe(TimingProxy):
    """``ChunkStore`` proxy: times saves and restores, counts logical bytes
    and dedup, and marks the calling thread's operation kind."""

    def __init__(self, store, rec: Recorder, corrupt_restores: bool = False):
        super().__init__(store, rec, {})
        self._corrupt = corrupt_restores

    def save_snapshot(self, job_id, snapshot, extra=None):
        rec = self._rec
        rec.count("logical_bytes", snapshot.nbytes())
        with rec.op("save"), rec.timed("service.chunkstore.save"):
            record = self._target.save_snapshot(job_id, snapshot, extra=extra)
        rec.count("blocks", record.n_blocks)
        rec.count("new_blocks", record.n_new_blocks)
        return record

    def _damage(self, array):
        # The deliberately corrupted restore of the smoke test: one flipped
        # bit in a restored tensor must trip the correctness gate.
        damaged = array.copy()
        damaged.view("uint8").reshape(-1)[0] ^= 1
        return damaged

    def latest_valid(self, job_id):
        rec = self._rec
        with rec.op("restore"), rec.timed("service.chunkstore.latest_valid"):
            ckpt_id, snapshot, skipped = self._target.latest_valid(job_id)
        rec.count("core.restore.refetches", len(skipped))
        if self._corrupt and snapshot is not None:
            snapshot.params = self._damage(snapshot.params)
        return ckpt_id, snapshot, skipped

    def latest_valid_partial(self, job_id, names):
        rec = self._rec
        with rec.op("restore"), rec.timed("service.chunkstore.restore_params"):
            ckpt_id, tensors, skipped = self._target.latest_valid_partial(
                job_id, names
            )
        rec.count("core.restore.refetches", len(skipped))
        return ckpt_id, tensors, skipped

    def load_snapshot(self, job_id, ckpt_id=None):
        rec = self._rec
        with rec.op("restore"), rec.timed("service.chunkstore.load_snapshot"):
            return self._target.load_snapshot(job_id, ckpt_id)


#: Sample names of the three restore entry points of :class:`StoreProbe`.
RESTORE_SAMPLES = (
    "service.chunkstore.latest_valid",
    "service.chunkstore.restore_params",
    "service.chunkstore.load_snapshot",
)


class ChannelProbe(TimingProxy):
    """``PoolChannel`` proxy wrapping each submitted closure.

    ``save_commit`` is submit() called -> the task returned (manifest
    durable); ``tag`` is whatever the submitter set before submitting (the
    training step), and ``acked`` is the tag of the newest task known to have
    committed — the durability floor a later restore must not fall below.
    """

    def __init__(self, channel, rec: Recorder):
        super().__init__(channel, rec, {})
        self.tag = None
        self.acked = None
        self._submitted = 0  # written by the submitting thread only
        self._finished = 0  # written by the worker thread only

    def in_flight(self) -> bool:
        """Whether a submitted task has not returned yet."""
        return self._submitted > self._finished

    def submit(self, task, fallback=None, fallback_factory=None):
        rec = self._rec
        tag = self.tag
        submitted = time.perf_counter()

        def timed_task():
            started = time.perf_counter()
            rec.add("service.pool.queue_wait", started - submitted)
            try:
                with rec.timed("service.pool.task"):
                    task()
            except BaseException:
                rec.count("service.pool.task_errors")
                rec.check(False, f"save task failed (tag {tag})")
                raise
            finally:
                self._finished += 1
            rec.add("save_commit", time.perf_counter() - submitted)
            rec.check(True, "save")
            self.acked = tag
            rec.tick("pool")  # the worker thread's own yardstick reading

        self._submitted += 1
        with rec.timed("service.pool.submit"):
            self._target.submit(
                timed_task, fallback=fallback, fallback_factory=fallback_factory
            )
        rec.add(
            "service.pool.backpressure_stall", time.perf_counter() - submitted
        )


class PoolProbe(TimingProxy):
    """``WriterPool`` proxy whose channels are :class:`ChannelProbe` s (the
    fleet daemon creates its jobs' channels itself)."""

    def __init__(self, pool, rec: Recorder):
        super().__init__(pool, rec, {})

    def channel(self, job_id, max_pending=2, backpressure="block"):
        return ChannelProbe(
            self._target.channel(
                job_id, max_pending=max_pending, backpressure=backpressure
            ),
            self._rec,
        )
