"""Sweep cells that share their draws.

In a sweep, configuration c of every cell draws from stream (master_seed, c).
Cells whose draws are the same on every stream, call for call, differ only in
the parameters the draws feed (the saving-propensity window, a fixed split or
saving fraction), so :class:`block.EnsembleBlock` can step them together: the
step kernel draws once per stream and applies the draws to every cell's
economy on that stream.  Imported with :mod:`block`, and by runs of more than
one cell.
"""

from __future__ import annotations

from .exchange import LATTICE_2D, ModelSpec, _step_plan


def draw_signature(spec: ModelSpec, n: int) -> tuple:
    """What fixes a run's draws and the block's update: rule, pairing and
    lattice side, n, init and the step's draws (:func:`exchange._step_plan`).
    Cells with equal signatures draw the same values from the same stream."""
    side = spec.lattice_side if spec.pairing == LATTICE_2D else None
    return (spec.rule, spec.pairing, side, n, spec.init, _step_plan(spec, n))


def draw_groups(specs: tuple[ModelSpec, ...], n: int) -> list[list[int]]:
    """Indices of ``specs`` grouped by draw signature, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for k, spec in enumerate(specs):
        groups.setdefault(draw_signature(spec, n), []).append(k)
    return list(groups.values())
