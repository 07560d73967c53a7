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


# Blocks of at least BATCH_MIN_ROWS economies run through exchange.EnsembleBlock;
# smaller ones step each economy with run_time_step.  Against that per-economy
# loop (mean field at N=100 and N=1000, a 32x32 lattice with eps redrawn), 16
# rows ran at 0.75-1.3x, 24 rows at 1.1-1.7x, 32 rows at 1.3-1.8x and 64 rows
# at 1.9-3.4x.  The threshold sits at that crossover because a block holds
# little more than its state and allocates nothing its size per step: a
# 2-worker run of 60 economies of 1024 agents in two batched 30-row blocks
# ran 1.7-2.2x faster and peaked 3.5% higher in resident memory (73.0 against
# 70.5 MB) than in 7-row blocks stepped per economy.
# Where a worker's share reaches BATCH_MIN_ROWS, fan-out blocks hold at least
# BATCH_ROWS economies, as larger blocks step faster.
BATCH_MIN_ROWS = 24
BATCH_ROWS = 64


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


def replay(source, plan) -> list:
    """Make the draws ``plan`` lists, ``(name, *args)`` method calls, on ``source``."""
    return [getattr(source, name)(*args) for name, *args in plan]


def map_stream_blocks(fn: Callable, args: tuple, n_streams: int, workers: int = 1) -> list:
    """Run ``fn((*args, start, stop))`` over contiguous blocks of stream indices.

    With one worker (or one stream) a single block holds every stream.  With
    more workers the blocks go to a process pool.  Where each worker's share
    ``ceil(C / workers)`` of the C streams can hold BATCH_MIN_ROWS, the blocks
    hold ``max(BATCH_ROWS, C // (4 * workers))``, capped at that share, so
    that the wealth models step them on their batched path; otherwise they hold
    ``max(1, C // (4 * workers))``, four or more per worker for load balance.
    The results come back in stream order, so a reduction over them in list
    order is the same for every worker count.
    """
    size = n_streams
    if workers > 1:
        share = -(-n_streams // workers)
        size = max(1, n_streams // (4 * workers))
        if BATCH_MIN_ROWS <= share:
            size = min(max(BATCH_ROWS, size), share)
    jobs = [(*args, lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs, chunksize=1)
    return [fn(job) for job in jobs]
