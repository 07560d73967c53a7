"""Reproducible per-configuration random number streams.

Ensemble runs average over many initial configurations.  Each configuration
gets its own stream, keyed by (master_seed, stream_index), so that runs are
reproducible and configurations can be simulated in any order or in parallel
without changing the results.  :func:`map_stream_blocks` is the one fan-out
that spreads contiguous blocks of streams over worker processes.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    """One independent random stream, identified by (master_seed, stream_index).

    Streams with equal identifiers produce identical draw sequences; distinct
    stream indices give statistically independent sequences (the spawn-key
    mechanism of ``numpy.random.SeedSequence``).
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def gen(self) -> np.random.Generator:
        """The underlying generator; created lazily, then stateful across calls."""
        if self._gen is None:
            seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
            self._gen = np.random.default_rng(seq)
        return self._gen


def map_stream_blocks(fn: Callable, args: tuple, n_streams: int, workers: int = 1) -> list:
    """Run ``fn((*args, start, stop))`` over contiguous blocks of stream indices.

    With one worker (or one stream) a single block holds every stream.  With
    more workers the blocks hold ``max(1, n_streams // (4 * workers))`` streams
    each and go to a process pool.  The results come back in stream order, so a
    reduction over them in list order is the same for every worker count.
    """
    size = max(1, n_streams // (4 * workers)) if workers > 1 else n_streams
    jobs = [(*args, lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs, chunksize=1)
    return [fn(job) for job in jobs]
