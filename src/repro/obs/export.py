"""Exporters: bounded JSONL logs and the on-store ``obs/`` directory.

A serving daemon (or a scrub run) keeps its observability artifacts under
``<store>/obs/`` (:func:`repro.storage.layout.obs_dir`):

* ``registry.json`` — the persisted metrics snapshot, written at clean
  shutdown and after a scrub, reloaded (epoch-bumped) at the next start so
  cumulative counters survive restarts (the stats-loss-on-reopen fix);
* ``trace.jsonl`` — one JSON object per finished span.

The ``.jsonl`` log is *bounded*: when the file passes ``max_bytes`` it
is rotated — the whole file moves to a single ``<name>.1`` generation
(replacing the previous rotation) and appends continue into a fresh
file, so history survives one full rotation and the obs directory can
never eat the store's disk.  Readers must use
:func:`read_jsonl_records`, which walks the ``.1`` generation first and
tolerates a torn trailing line (a crash mid-append can leave one).
Record schemas are documented in docs/FORMATS.md.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceSink

REGISTRY_FILENAME = "registry.json"
TRACE_FILENAME = "trace.jsonl"
DEFAULT_MAX_LOG_BYTES = 4 << 20


class BoundedJsonlWriter:
    """Append JSON records to a file, rotating once past ``max_bytes``."""

    def __init__(self, path, max_bytes: int = DEFAULT_MAX_LOG_BYTES):
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # Rotation moves the *whole* file to one `.1` generation
                # (never truncates mid-record); an empty live file is never
                # rotated, so an oversized record cannot wipe the previous
                # generation for nothing.
                if (
                    self.path.exists()
                    and self.path.stat().st_size > 0
                    and self.path.stat().st_size + len(line) > self.max_bytes
                ):
                    self.path.replace(self.path.with_name(self.path.name + ".1"))
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line)
            except OSError:
                pass  # observability must never fail the operation it observes


def read_jsonl_records(path) -> Iterator[dict]:
    """Records from a bounded JSONL file, oldest first, damage-tolerant.

    Reads the rotated ``<name>.1`` generation before the live file, skips
    any line that does not decode to a JSON object (a torn trailing line
    from a crash mid-append, or garbage), and treats missing files as
    empty.  This is the one reader the offline ``qckpt metrics`` /
    ``qckpt profile`` paths go through.
    """
    path = Path(path)
    for candidate in (path.with_name(path.name + ".1"), path):
        try:
            with candidate.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn or corrupt line: skip, keep reading
                    if isinstance(record, dict):
                        yield record
        except OSError:
            continue


class JsonlTraceSink(TraceSink):
    """Spans to a bounded JSONL file (the daemon's process sink)."""

    def __init__(self, path, max_bytes: int = DEFAULT_MAX_LOG_BYTES):
        self._writer = BoundedJsonlWriter(path, max_bytes=max_bytes)
        self.path = self._writer.path

    def emit(self, span: Span) -> None:
        self._writer.append(span.to_record())


class ObsDir:
    """The ``<store>/obs/`` directory: registry snapshot + JSONL logs."""

    def __init__(self, root, max_log_bytes: int = DEFAULT_MAX_LOG_BYTES):
        self.root = Path(root)
        self.max_log_bytes = int(max_log_bytes)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def registry_path(self) -> Path:
        return self.root / REGISTRY_FILENAME

    @property
    def trace_path(self) -> Path:
        return self.root / TRACE_FILENAME

    def load_registry(self, registry: MetricsRegistry) -> bool:
        return registry.load(self.registry_path)

    def save_registry(self, registry: MetricsRegistry) -> None:
        try:
            registry.save(self.registry_path)
        except OSError:
            pass

    def trace_sink(self) -> JsonlTraceSink:
        return JsonlTraceSink(self.trace_path, max_bytes=self.max_log_bytes)


def _prom_name(name: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "qckpt_" + sanitized


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels or {})
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key in sorted(merged):
        value = (
            str(merged[key])
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def _prom_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    formatted = repr(float(value))
    return formatted[:-2] if formatted.endswith(".0") else formatted


def prometheus_text(snapshot: dict) -> str:
    """Registry snapshot as Prometheus text exposition (version 0.0.4).

    Counters gain the conventional ``_total`` suffix, histograms expand
    into cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
    and every name is prefixed ``qckpt_``.  The registry epoch (restart
    incarnation) is exported as ``qckpt_registry_epoch`` so scrapers can
    detect restarts the same way ``qckpt top`` does.
    """
    lines: List[str] = []
    typed: set = set()

    def declare(prom: str, kind: str) -> None:
        if prom not in typed:
            typed.add(prom)
            lines.append(f"# TYPE {prom} {kind}")

    lines.append("# TYPE qckpt_registry_epoch gauge")
    lines.append(
        f"qckpt_registry_epoch {_prom_number(snapshot.get('epoch', 1))}"
    )
    for record in snapshot.get("series", ()):
        name = record.get("name")
        kind = record.get("type")
        if not name:
            continue
        labels = record.get("labels") or {}
        if kind == "counter":
            prom = _prom_name(name) + "_total"
            declare(prom, "counter")
            lines.append(
                f"{prom}{_prom_labels(labels)} "
                f"{_prom_number(record.get('value', 0.0))}"
            )
        elif kind == "gauge":
            prom = _prom_name(name)
            declare(prom, "gauge")
            lines.append(
                f"{prom}{_prom_labels(labels)} "
                f"{_prom_number(record.get('value', 0.0))}"
            )
        elif kind == "histogram":
            prom = _prom_name(name)
            declare(prom, "histogram")
            bounds = list(record.get("buckets", [])) + [float("inf")]
            cumulative = 0
            counts = list(record.get("counts", []))
            for bound, bucket_count in zip(bounds, counts):
                cumulative += int(bucket_count)
                le = _prom_labels(labels, {"le": _prom_number(bound)})
                lines.append(f"{prom}_bucket{le} {cumulative}")
            lines.append(
                f"{prom}_sum{_prom_labels(labels)} "
                f"{_prom_number(record.get('sum', 0.0))}"
            )
            lines.append(
                f"{prom}_count{_prom_labels(labels)} "
                f"{int(record.get('count', 0))}"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_MAX_LOG_BYTES",
    "REGISTRY_FILENAME",
    "TRACE_FILENAME",
    "BoundedJsonlWriter",
    "JsonlTraceSink",
    "ObsDir",
    "prometheus_text",
    "read_jsonl_records",
]
