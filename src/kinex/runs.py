"""Runs of interaction slots that touch no agent twice.

Within one time step, consecutive slots whose agents are all distinct can be
updated in one vectorized operation: no slot of the run reads a wealth that
another slot of the run writes, so each economy sees the same floating-point
operations as when the slots run one after another.  Only
:class:`block.EnsembleBlock` uses this module, and it is imported with it.
"""

from __future__ import annotations

import numpy as np


def run_bounds(pairs: np.ndarray, streams: int) -> list[int]:
    """Bounds ``[0, b1, ..., n]`` of one step's greedy runs of slots.

    ``pairs`` is ``(n, 2 * streams)``, slot-major as :func:`exchange._partners`
    leaves it: per slot the first agent in every stream, then every partner.
    Run ``[b_k, b_k+1)`` touches no agent twice in any stream, and the slot that
    starts the next run touches an agent of the run before it.
    """
    n = len(pairs)
    # agent a of stream s gets the id s * n + a; a stable sort lists each id's
    # slots in order, so each repeat names the latest earlier slot touching it
    ids = (pairs.reshape(n, 2, streams) + np.arange(0, streams * n, n)).ravel()
    ids = ids.astype(np.min_scalar_type(streams * n))
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeat = ids[1:] == ids[:-1]
    slot = np.floor_divide(order, 2 * streams, out=order)
    latest = np.full(n, -1)
    np.maximum.at(latest, slot[1:][repeat], slot[:-1][repeat])
    bounds, start = [0], 0
    for k, prev in enumerate(latest.tolist()):
        if prev >= start:
            bounds.append(k)
            start = k
    bounds.append(n)
    return bounds


def run_rows(bounds: list[int]) -> np.ndarray:
    """Where the rows of a slot-major ``(2n, ...)`` array go when it is laid out
    by runs: row 2k (slot k's agent i) and row 2k + 1 (its partner j) move to
    rows a + k and b + k of slot k's run [a, b), so that the run holds its i's
    in rows [2a, a + b) and its j's in rows [a + b, 2b)."""
    bounds = np.asarray(bounds)
    slots = np.arange(bounds[-1])
    lengths = np.diff(bounds)
    start = np.repeat(bounds[:-1], lengths) + slots
    stop = np.repeat(bounds[1:], lengths) + slots
    return np.stack([start, stop], axis=1).ravel()
