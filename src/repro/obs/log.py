"""Structured diagnostics: component + level + ``key=value`` fields.

One line per event on stderr (never stdout — stdout belongs to command
output and is parsed by scripts), machine-grepable:

    2026-08-07T12:00:01 INFO daemon serving daemon=daemon-1a2b listen=127.0.0.1:8341

Level resolution, highest precedence first: :func:`configure` (the CLI's
``--verbose`` maps to ``debug``), then the ``QCKPT_LOG`` environment
variable (``debug``/``info``/``warning``/``error``), then the default
``warning`` — so daemons are quiet unless an operator asks.

When an ambient trace span exists, its trace id is appended as
``trace=<id>``, which is what stitches a log line to the JSONL span tree.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Optional, TextIO

from repro.obs.trace import current_trace_id

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_DEFAULT_LEVEL = "warning"

_lock = threading.Lock()
_configured_level: Optional[str] = None
_stream: Optional[TextIO] = None  # None -> sys.stderr at emit time


def _env_level() -> str:
    level = os.environ.get("QCKPT_LOG", "").strip().lower()
    return level if level in _LEVELS else _DEFAULT_LEVEL


def configure(
    level: Optional[str] = None, stream: Optional[TextIO] = None
) -> None:
    """Override the log level and/or destination (tests, ``--verbose``)."""
    global _configured_level, _stream
    if level is not None:
        level = level.strip().lower()
        if level not in _LEVELS:
            raise ValueError(
                f"unknown log level {level!r}, expected one of "
                f"{sorted(_LEVELS)}"
            )
    with _lock:
        if level is not None:
            _configured_level = level
        if stream is not None:
            _stream = stream


def reset() -> None:
    """Back to environment-driven defaults (tests)."""
    global _configured_level, _stream
    with _lock:
        _configured_level = None
        _stream = None


def threshold() -> int:
    return _LEVELS[_configured_level or _env_level()]


def _format_value(value) -> str:
    text = str(value)
    if " " in text or '"' in text or "=" in text:
        text = '"' + text.replace('"', r"\"") + '"'
    return text


class ObsLogger:
    """Per-component structured logger; cheap to construct and hold."""

    def __init__(self, component: str):
        self.component = component

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if _LEVELS[level] < threshold():
            return
        trace_id = current_trace_id()
        if trace_id is not None:
            fields = dict(fields, trace=trace_id)
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime())
        parts = [stamp, level.upper(), self.component, event]
        parts.extend(f"{k}={_format_value(v)}" for k, v in fields.items())
        line = " ".join(parts)
        with _lock:
            stream = _stream or sys.stderr
            try:
                print(line, file=stream)
            except (OSError, ValueError):
                pass  # a dead stderr must never take the daemon down

    def debug(self, event: str, **fields) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit("error", event, fields)


def get_logger(component: str) -> ObsLogger:
    return ObsLogger(component)


__all__ = ["ObsLogger", "configure", "get_logger", "reset", "threshold"]
