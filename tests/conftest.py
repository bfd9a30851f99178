"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.chunkstore import ChunkStore
from repro.storage.local import LocalDirectoryBackend
from repro.storage.memory import InMemoryBackend


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; reseeded per test."""
    return np.random.default_rng(20260610)


@pytest.fixture
def memory_store() -> ChunkStore:
    """Chunk store over an in-memory backend."""
    return ChunkStore(InMemoryBackend())


@pytest.fixture
def local_backend(tmp_path) -> LocalDirectoryBackend:
    """Filesystem backend rooted in a temp directory."""
    return LocalDirectoryBackend(tmp_path / "store")
