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


# Blocks of at least BATCH_MIN_ROWS economies run through block.EnsembleBlock;
# smaller ones step each economy with run_time_step.  Against that per-economy
# loop (mean field at N=100 and N=1000, a 32x32 lattice with eps redrawn), 16
# rows ran at 0.75-1.3x, 24 rows at 1.1-1.7x, 32 rows at 1.3-1.8x and 64 rows
# at 1.9-3.4x.  The threshold sits at that crossover because a block holds
# little more than its state and allocates nothing its size per step: a
# 2-worker run of 60 economies of 1024 agents in two batched 30-row blocks
# ran 1.7-2.2x faster and peaked 3.5% higher in resident memory (73.0 against
# 70.5 MB) than in 7-row blocks stepped per economy.
# Where a worker's share reaches BATCH_MIN_ROWS, fan-out blocks hold at least
# BATCH_ROWS economies, as larger blocks step faster, and at most
# BATCH_MAX_ROWS: from 512 rows on a step cost about the same per interaction
# (82-102 ns at N = 100, 512 to 4096 rows), while a block's memory grows with
# its rows, and so with a sweep's cells.
BATCH_MIN_ROWS = 24
BATCH_ROWS = 64
BATCH_MAX_ROWS = 2048
# A block steps run by run (block.EnsembleBlock) when its economies have at
# least RUN_AGENTS agents per stream it draws from: the runs then grow long
# enough to pay for finding them.  Against slot by slot (mean field at N = 100
# and 1000, a 32x32 lattice), runs stepped 1.1-1.5x as fast at 40-51 agents
# per stream, 1.3-2.1x at 62-85 and 1.8-5.4x at 100 and more, but 1.07x at 33
# (mean field) and 0.61x at 34 (the lattice).  A block stepped in runs costs
# about the same whatever its rows, so it beats stepping each economy from
# fewer rows than slot by slot: 1.4-4.6x from RUN_MIN_ROWS rows on, 1.1-2.6x
# at 8-10 rows and 0.77-2.0x at 3-6.
RUN_AGENTS = 48
RUN_MIN_ROWS = 12


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


def steps_in_runs(streams: int, agents: int) -> bool:
    """Whether a block on ``streams`` streams of ``agents``-agent economies
    steps run by run rather than slot by slot (see block.EnsembleBlock)."""
    return agents >= RUN_AGENTS * streams


def batched(streams: int, cells: int = 1, agents: int = 0) -> bool:
    """Whether a block of ``streams`` streams times ``cells`` sweep cells of
    ``agents``-agent economies runs through block.EnsembleBlock."""
    rows = streams * cells
    return rows >= BATCH_MIN_ROWS or rows >= RUN_MIN_ROWS and steps_in_runs(streams, agents)


def map_stream_blocks(
    fn: Callable, args: tuple, n_streams: int, workers: int = 1, cells: int = 1, agents: int = 0
) -> list:
    """Run ``fn((*args, start, stop))`` over contiguous blocks of stream indices.

    A block of S streams holds S * ``cells`` economies of ``agents`` agents:
    the wealth models run every cell of a sweep that shares its draws on the
    block's streams (the resistor network gives neither, one realization per
    stream).  With one worker (or one stream) a single block holds every
    stream, and a block never more than ``BATCH_MAX_ROWS // cells`` of them.
    With more workers the blocks go to a process pool.  Where each
    worker's share ``ceil(C / workers)`` of the C streams would be
    :func:`batched`, the blocks hold ``max(ceil(BATCH_ROWS / cells), C // (4 *
    workers))`` streams, capped at that share, so that the wealth models step
    them on their batched path; otherwise they hold ``max(1, C // (4 *
    workers))``, four or more per worker for load balance.  The results come
    back in stream order, so a reduction over them in list order is the same
    for every worker count.
    """
    size = n_streams
    if workers > 1:
        share = -(-n_streams // workers)
        size = max(1, n_streams // (4 * workers))
        if batched(share, cells, agents):
            size = min(max(-(-BATCH_ROWS // cells), size), share)
    size = min(size, max(1, BATCH_MAX_ROWS // cells))
    jobs = [(*args, lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs, chunksize=1)
    return [fn(job) for job in jobs]
