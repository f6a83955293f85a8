"""Deterministic counter-based random streams for parallel simulation.

Replications are partitioned into fixed-size blocks; each block draws from
its own Philox generator keyed by SHA-256 of (seed, stream label, block
index).  Every variate is therefore a pure function of those coordinates
and of its position inside the block, so results are bitwise identical no
matter how blocks are scheduled across workers.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .core import ValidationError, _checked_int

__all__ = [
    "BLOCK_SIZE",
    "stream_key",
    "block_generator",
    "iter_blocks",
    "worker_count",
]

BLOCK_SIZE = 8192

THREADS_ENV_VAR = "ROSENTHAL_THREADS"
_DEFAULT_MAX_WORKERS = 4


def stream_key(seed: int, label: str, block: int) -> np.ndarray:
    """128-bit Philox key derived from (seed, stream label, block index)."""
    seed = _checked_int("seed", seed, 0, hi=None)
    digest = hashlib.sha256(f"{seed}:{label}:{int(block)}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def block_generator(seed: int, label: str, block: int) -> np.random.Generator:
    """Fresh generator for one block of one stream."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, label, block)))


def iter_blocks(total: int) -> list[tuple[int, int, int]]:
    """(block index, start, stop) covering range(total) in blocks of
    ``BLOCK_SIZE``."""
    return [
        (blk, start, min(start + BLOCK_SIZE, total))
        for blk, start in enumerate(range(0, total, BLOCK_SIZE))
    ]


def worker_count(threads: int | None = None) -> int:
    """Effective worker count: explicit argument, else the ROSENTHAL_THREADS
    environment variable, else min(4, cpu_count).  Never affects results,
    only wall-clock time."""
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(
                    f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            threads = min(_DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
    return _checked_int("worker count", threads, 1)
