"""Reproducible per-configuration random number streams.

Ensemble runs average over many initial configurations.  Each configuration
gets its own stream, keyed by (master_seed, stream_index), so that runs are
reproducible and configurations can be simulated in any order or in parallel
without changing the results.  :func:`map_stream_blocks` is the one fan-out
that spreads contiguous blocks of streams over worker threads, never more
threads than blocks.  They are bare ``threading.Thread`` objects, where a
thread pool would import ``multiprocessing`` (25 modules) in every run with
more than one worker.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter


# A block holds at most BATCH_MAX_ROWS economies, for memory alone: its rows
# hold every cell's wealth and saving.  The full-scale eps-sweep (5 cells x
# 10,000 configurations, N = 100, 1 worker) peaked at 120 MB resident with the
# cap and at 343 MB as one uncapped block, and ran faster with it (9.5 s
# against 12.9 s).
BATCH_MAX_ROWS = 2048


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


def map_stream_blocks(block: Callable, n_streams: int, workers: int = 1, cells: int = 1) -> list:
    """Run ``block(start, stop)`` over contiguous blocks of stream indices [0, ``n_streams``).

    A block of S streams holds S * ``cells`` economies: the wealth models run
    every cell of a sweep that shares its draws on the block's streams (the
    resistor network, one realization of each window per stream).  Blocks
    hold a worker's share, ``ceil(C / W)`` of the C streams, or ``max(1,
    BATCH_MAX_ROWS // cells)`` streams where that is fewer: each of the W
    workers gets one block unless its share would hold more than
    ``BATCH_MAX_ROWS`` economies.  The
    compiled kernel is loaded here, in the calling thread, before any block
    starts, so that no two threads race its build, its load or its checks.
    With W > 1 the blocks go to min(W, blocks) threads, each taking the next
    block as it finishes one; the kernel releases the GIL, so they step in
    parallel.  An exception raised in a block is raised here unchanged once
    the threads have stopped (the failed block first in stream order), and no
    thread takes another block after it.  The results come back in stream
    order, so a reduction over them in list order is the same for every
    worker count.
    """
    if n_streams < 1:
        raise InvalidParameter(f"n_configs={n_streams} must be >= 1")
    from .kernel import library  # not at import: the CLI's start neither builds nor loads it

    library()
    size = min(-(-n_streams // max(workers, 1)), max(1, BATCH_MAX_ROWS // cells))
    spans = [(lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]
    if workers <= 1 or len(spans) == 1:
        return [block(start, stop) for start, stop in spans]
    from threading import Thread  # here, not at import: numpy.random, loaded by now, imports it

    results = [None] * len(spans)
    pending = deque(enumerate(spans))  # its pops are atomic: no two threads take a block
    failed = []

    def work() -> None:
        while not failed:
            try:
                k, (start, stop) = pending.popleft()
            except IndexError:  # no block left
                return
            try:
                results[k] = block(start, stop)
            except BaseException as e:
                failed.append((k, e))

    threads = [Thread(target=work) for _ in range(min(workers, len(spans)))]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    finally:
        pending.clear()  # an interrupted wait leaves the threads no block to start
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results
