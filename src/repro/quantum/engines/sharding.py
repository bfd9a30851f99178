"""Multi-process gradient sharding: fan a shifted batch across workers.

A parameter-shift gradient is ``2P`` (or ``4P``) independent shifted
executions of one circuit — embarrassingly parallel, yet the batched sweep
of :func:`repro.quantum.kernels.run_shifted_batch` burns a single core.
:class:`ShardExecutor` keeps a pool of persistent worker processes, each
with its own primed matrix cache and the same engine tier as the parent,
and splits the batch into contiguous shards.

Why not ``ProcessPoolExecutor``: the pool here needs *targeted* per-worker
RPC — cache introspection (``cache_info(all_workers=True)``), cache
clearing, cache priming, and deterministic crash injection for the recovery
tests — so each worker owns a dedicated duplex pipe and a tiny op loop
instead of a shared task queue.

Determinism contract: shards are contiguous, at least 2 wide (width-1
column batches take a different einsum path inside ``expectation_batch``),
and every kernel on the shifted-batch path is invariant to batch width, so
``out[lo:hi] = worker(batch[lo:hi])`` merged in order is **bitwise
identical** to the single-process energies — the parity property tests
assert exactly that, per tier.

Crash handling: a worker that dies mid-shard (EOF/broken pipe) is
respawned and its shard re-executed from scratch — energies are only ever
merged per completed shard, so a crash can never leak a partial gradient.
A shard that fails twice falls back to in-process execution; a worker that
reports an error (e.g. its engine tier failed to load) falls back the same
way.  All of it is counted in the ``shard.*`` metrics series.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

START_METHOD_ENV = "QCKPT_SHARD_START_METHOD"

#: Seconds to wait for one shard result before declaring the worker hung.
_RESULT_TIMEOUT = 600.0

#: Shards narrower than this would change expectation reduction paths (and
#: waste IPC): the partitioner never emits a shard below it.
_MIN_SHARD = 2


def shard_bounds(total: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous balanced ``[lo, hi)`` shard bounds over ``total`` items.

    Uses at most ``workers`` shards, never makes a shard narrower than
    ``_MIN_SHARD`` (so a 192-shift batch over 4 workers is four 48-wide
    shards, while a 6-shift batch over 4 workers is three 2-wide ones).
    """
    if total <= 0:
        return []
    shards = max(1, min(workers, total // _MIN_SHARD))
    base, rem = divmod(total, shards)
    bounds = []
    lo = 0
    for k in range(shards):
        hi = lo + base + (1 if k < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _worker_main(conn, tier: Optional[str]) -> None:
    """Worker op loop: select the parent's tier, then serve pipe requests."""
    tier_error = None
    try:
        from repro.quantum import engines as _engines

        _engines.select_engine(tier)
    except BaseException as exc:  # report on first use, never die silently
        tier_error = f"{type(exc).__name__}: {exc}"
    from repro.autodiff._execute import shifted_batch_energies
    from repro.quantum import kernels as _kernels

    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            return
        try:
            if op == "energies":
                if payload.get("crash"):
                    os._exit(3)  # simulated kill -9 mid-shard
                if tier_error is not None:
                    conn.send(("error", f"engine selection failed: {tier_error}"))
                    continue
                result = shifted_batch_energies(
                    payload["circuit"],
                    payload["values"],
                    payload["batch"],
                    payload["observable"],
                    payload["initial_state"],
                )
                conn.send(("ok", result))
            elif op == "prime":
                circuit, values = payload
                _kernels.prime_circuit_cache(circuit, values)
                conn.send(("ok", None))
            elif op == "cache_info":
                info = _kernels.cache_info()
                info["pid"] = os.getpid()
                info["tier"] = None if tier_error else tier
                conn.send(("ok", info))
            elif op == "clear_caches":
                _kernels.clear_caches()
                conn.send(("ok", None))
            elif op == "ping":
                conn.send(("ok", os.getpid()))
            elif op == "exit":
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except BaseException as exc:
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except OSError:
                return


class _Worker:
    def __init__(self, ctx, tier: Optional[str]):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child, tier), daemon=True
        )
        self.process.start()
        child.close()

    def request(self, op: str, payload, timeout: float = _RESULT_TIMEOUT):
        """One RPC round-trip; raises EOFError when the worker is gone."""
        self.conn.send((op, payload))
        if not self.conn.poll(timeout):
            raise EOFError(f"worker {self.process.pid} timed out on {op!r}")
        status, result = self.conn.recv()
        if status != "ok":
            raise WorkerError(result)
        return result

    def stop(self) -> None:
        try:
            self.conn.send(("exit", None))
            self.conn.poll(1.0) and self.conn.recv()
        except (OSError, EOFError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(timeout=2.0)
        finally:
            try:
                self.conn.close()
            except OSError:
                pass


class WorkerError(Exception):
    """A worker replied with an error (as opposed to dying)."""


def _pick_context(start_method: Optional[str]):
    method = start_method or os.environ.get(START_METHOD_ENV, "").strip() or None
    if method is None:
        # fork shares the parent's warm imports and compiled library, making
        # worker start ~instant; fall back to the platform default elsewhere.
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
    try:
        return multiprocessing.get_context(method)
    except ValueError as exc:
        raise ConfigError(f"unknown start method {method!r}") from exc


class ShardExecutor:
    """A persistent pool of gradient-shard worker processes."""

    def __init__(
        self,
        workers: int,
        tier: Optional[str] = None,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        from repro.quantum import engines as _engines

        self.workers = int(workers)
        self.tier = tier if tier is not None else _engines.active_engine()
        self._metrics = _engines.METRICS
        self._ctx = _pick_context(start_method)
        self._lock = threading.Lock()
        self._crash_next = 0
        self._closed = False
        self._pool: List[_Worker] = [
            _Worker(self._ctx, self.tier) for _ in range(self.workers)
        ]
        self._metrics.gauge("shard.workers").set(self.workers)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._pool:
                worker.stop()
            self._pool = []
            self._metrics.gauge("shard.workers").set(0)

    @property
    def closed(self) -> bool:
        return self._closed

    def _respawn(self, index: int) -> _Worker:
        self._pool[index].kill()
        self._pool[index] = _Worker(self._ctx, self.tier)
        return self._pool[index]

    # -- test hooks --------------------------------------------------------

    def inject_worker_crash(self, count: int = 1) -> None:
        """Arm the next ``count`` dispatched shards to kill their worker."""
        with self._lock:
            self._crash_next += int(count)

    def _take_crash_flag(self) -> bool:
        with self._lock:
            if self._crash_next > 0:
                self._crash_next -= 1
                return True
            return False

    # -- the shard fan-out -------------------------------------------------

    def energies(
        self,
        circuit,
        values,
        batch: Sequence[dict],
        observable,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Shard ``batch`` across the pool; energies merged in batch order."""
        if self._closed:
            raise ConfigError("ShardExecutor is closed")
        bounds = shard_bounds(len(batch), self.workers)
        out = np.empty(len(batch), dtype=np.float64)
        if not bounds:
            return out
        payloads = []
        for index, (lo, hi) in enumerate(bounds):
            payload = {
                "circuit": circuit,
                "values": values,
                "batch": list(batch[lo:hi]),
                "observable": observable,
                "initial_state": initial_state,
                "crash": self._take_crash_flag(),
            }
            payloads.append((index, lo, hi, payload))
            self._metrics.counter("shard.tasks").inc()
            self._metrics.counter("shard.shifts").inc(hi - lo)
        # Dispatch everything first so workers run concurrently, then
        # collect in shard order (merge order never depends on completion
        # order, which keeps the result deterministic).
        dispatched = []
        for index, lo, hi, payload in payloads:
            dispatched.append(
                (index, lo, hi, payload, self._try_send(index, payload))
            )
        self._metrics.counter("shard.gradients").inc()
        for index, lo, hi, payload, sent in dispatched:
            out[lo:hi] = self._collect(index, payload, sent)
        return out

    def _try_send(self, index: int, payload) -> bool:
        try:
            self._pool[index].conn.send(("energies", payload))
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False

    def _collect(self, index: int, payload, sent: bool) -> np.ndarray:
        worker = self._pool[index]
        if sent:
            try:
                if not worker.conn.poll(_RESULT_TIMEOUT):
                    raise EOFError("timed out")
                status, result = worker.conn.recv()
                if status == "ok":
                    return result
                self._metrics.counter("shard.errors").inc()
                return self._in_process(payload)
            except (EOFError, OSError, BrokenPipeError):
                pass  # worker died mid-shard: respawn and retry below
        self._metrics.counter("shard.worker_crashes").inc()
        worker = self._respawn(index)
        payload = dict(payload, crash=False)
        try:
            self._metrics.counter("shard.retries").inc()
            return worker.request("energies", payload)
        except (EOFError, OSError, BrokenPipeError, WorkerError):
            self._metrics.counter("shard.fallbacks").inc()
            return self._in_process(payload)

    @staticmethod
    def _in_process(payload) -> np.ndarray:
        from repro.autodiff._execute import shifted_batch_energies

        return shifted_batch_energies(
            payload["circuit"],
            payload["values"],
            payload["batch"],
            payload["observable"],
            payload["initial_state"],
        )

    # -- per-worker cache RPC ----------------------------------------------

    def _broadcast(self, op: str, payload=None) -> List[object]:
        results = []
        for index in range(len(self._pool)):
            try:
                results.append(self._pool[index].request(op, payload, timeout=30.0))
            except (EOFError, OSError, BrokenPipeError):
                self._metrics.counter("shard.worker_crashes").inc()
                self._respawn(index)
                results.append(self._pool[index].request(op, payload, timeout=30.0))
        return results

    def cache_info(self) -> List[dict]:
        """Matrix/derivative cache statistics from every worker."""
        return self._broadcast("cache_info")

    def clear_caches(self) -> None:
        self._broadcast("clear_caches")

    def prime(self, circuit, values) -> None:
        """Warm every worker's matrix cache with the circuit's gates."""
        self._broadcast("prime", (circuit, np.asarray(values, dtype=np.float64)))

    def ping(self) -> List[int]:
        return self._broadcast("ping")


# ---------------------------------------------------------------------------
# Default executor (what the differentiators use)
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_default: Optional[ShardExecutor] = None


def get_executor(workers: int) -> ShardExecutor:
    """The shared executor, (re)built when the worker count changes."""
    global _default
    with _default_lock:
        if _default is None or _default.closed or _default.workers != workers:
            if _default is not None and not _default.closed:
                _default.close()
            _default = ShardExecutor(workers)
        return _default


def shutdown_default() -> None:
    global _default
    with _default_lock:
        if _default is not None:
            _default.close()
            _default = None


atexit.register(shutdown_default)


def sharded_energies(
    circuit,
    values,
    batch: Sequence[dict],
    observable,
    initial_state: Optional[np.ndarray] = None,
    workers: int = 2,
) -> np.ndarray:
    """Convenience entry: shard ``batch`` over the default executor."""
    return get_executor(workers).energies(
        circuit, values, batch, observable, initial_state
    )


def prime_worker_caches(circuit, values, workers: int) -> None:
    """Warm the shard workers' matrix caches (trainer startup hook)."""
    get_executor(workers).prime(circuit, values)


def worker_cache_info() -> List[dict]:
    """Per-worker cache statistics (``[]`` when no pool is live)."""
    with _default_lock:
        executor = _default
    if executor is None or executor.closed:
        return []
    return executor.cache_info()


def clear_worker_caches() -> None:
    with _default_lock:
        executor = _default
    if executor is not None and not executor.closed:
        executor.clear_caches()
