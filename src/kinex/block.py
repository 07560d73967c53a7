"""The batched kernel: a block of economies advanced together, run by run of
interaction slots, bit for bit as :func:`exchange.run_time_step` steps each one.

Batched runs import this module when they build their first block, and with it
the raw-word draws, the run bounds and the sweep signature; where no bytecode
cache is written, every start would otherwise compile them.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import InvalidParameter, InvalidSize
from .exchange import (
    DISTRIBUTED_SAVING,
    FIXED_SAVING,
    GENERAL,
    PURE_GAMBLING,
    AgentEnsemble,
    ModelSpec,
    _partners,
    _step_plan,
)
from .rawdraws import BlockDraws, check_raw_draws
from .runs import run_bounds, run_rows
from .streams import RngStream, steps_in_runs
from .sweep import draw_signature


class EnsembleBlock:
    """Economies of n agents advanced together, run by run of interaction slots.

    ``spec`` is one ModelSpec, or the specs of sweep cells that share their
    draws (see :func:`sweep.draw_signature`); with C cells and S ``rngs``,
    ``ensembles`` holds C * S economies, cell by cell, and row ``k * S + s`` is
    cell k's economy on stream s.  Its wealth occupies ``wealth[r*n:(r+1)*n]``
    of one flat array.  On every step each stream yields exactly what
    :func:`exchange.run_time_step` draws through its Generator, in the same
    order, read from raw words by :class:`rawdraws.BlockDraws`, and every
    cell's row on that stream uses those draws, with the cell's own saving and
    split parameters.

    A step then updates the slots one run at a time.  A run is one slot, or,
    where :func:`streams.steps_in_runs` holds, the longest stretch of
    consecutive slots whose agents are distinct in every stream
    (:func:`runs.run_bounds`); all of a run's slots of every row update in one
    vectorized operation.  No slot of a run reads a wealth another one writes,
    and rows share no agents, so each economy sees the same floating-point
    operations in the same order as under :func:`exchange.run_time_step`, and
    a block reproduces it bit for bit.  A block keeps only what a step reads,
    and :meth:`step` only advances; the relaxation observable is taken by its
    caller.
    """

    def __init__(
        self,
        spec: ModelSpec | tuple[ModelSpec, ...],
        ensembles: list[AgentEnsemble],
        rngs: list[RngStream],
    ):
        check_raw_draws()
        specs = (spec,) if isinstance(spec, ModelSpec) else tuple(spec)
        spec = specs[0]
        n = ensembles[0].n_agents
        streams, cells, rows = len(rngs), len(specs), len(ensembles)
        if rows != cells * streams:
            raise InvalidSize(f"{rows} economies for {cells} cells on {streams} streams")
        if cells > 1 and len({draw_signature(s, n) for s in specs}) > 1:
            raise InvalidParameter("a block's cells must make the same draws")
        self.spec = spec
        self.rows = rows
        self.n_agents = n
        self.wealth = np.concatenate([e.wealth for e in ensembles])
        # Only distributed saving reads the propensities; the other rules hold
        # them in the specs.
        self.saving = (
            np.concatenate([e.saving for e in ensembles]) if spec.rule == DISTRIBUTED_SAVING else None
        )
        self._draws = BlockDraws([rng.gen for rng in rngs], _step_plan(spec, n))
        self._cells, self._streams = cells, streams
        self._by_runs = by_runs = steps_in_runs(streams, n)

        # Buffers reused on every step.  The draws are decoded straight into
        # _drawn_pairs: row k holds slot k's agent i on every stream, then its
        # partner j.  _pairs holds the flat indices of those agents in every
        # economy, and _coef each slot's split coefficient in every economy;
        # with one cell _pairs is the stream buffer itself.  Viewed as (2n,
        # rows), _pairs holds slot k's i's in row 2k and its j's in row 2k + 1.
        # Run by run it is laid out by runs instead (_run_draws is the draws'
        # copy in that order): run [a, b) holds its i's in rows [2a, a + b) and
        # its j's in rows [a + b, 2b), so that every operand of a run's update
        # is one contiguous slice.  _lam and _keep follow _pairs.
        self._drawn_pairs = np.empty((n, 2 * streams), dtype=np.int64)
        self._drawn = [self._drawn_pairs[:, :streams].T, self._drawn_pairs[:, streams:].T]
        self._run_draws = np.empty_like(self._drawn_pairs) if by_runs else self._drawn_pairs
        self._pairs = self._run_draws if cells == 1 else np.empty((n, 2 * rows), dtype=np.int64)
        self._offsets = (np.arange(rows) * n).reshape(cells, streams)

        def per_row(values):
            # A per-row constant for every slot.  Run by run it is sliced flat,
            # which a broadcast allows only when one value serves every row.
            row = np.repeat(values, streams)
            if len({float(v).hex() for v in values}) == 1:  # hex tells -0.0 from 0.0
                row = row[:1]
            elif by_runs:
                return np.tile(row, (n, 1))
            return np.broadcast_to(row, (n, rows))

        self._scale = None
        if spec.rule == GENERAL or spec.eps_fixed is None:
            self._drawn_coef = np.empty((2 if spec.rule == GENERAL else 1, n, streams))
            self._drawn += [coef.T for coef in self._drawn_coef]
            self._coef = self._drawn_coef if cells == 1 else np.empty((len(self._drawn_coef), n, rows))
            if spec.rule == FIXED_SAVING:  # eps * (1 - lam), as in run_time_step
                self._scale = np.array([[1.0 - s.lambda_fixed] for s in specs])
            elif cells > 1:  # every cell's rows copy the stream's draws
                self._scale = np.ones((cells, 1))
        else:
            self._coef = per_row([
                s.eps_fixed * (1.0 - s.lambda_fixed) if s.rule == FIXED_SAVING else s.eps_fixed
                for s in specs
            ])[None]

        # What the update of slots [a, b) reads besides the wealth: slot by slot,
        # a row of each array in slot_rows; run by run, elements
        # cuts[lo]:cuts[hi] of each flat array in run_cuts, where cuts = (a, b,
        # 2a, a + b, 2b) * rows.
        slot_rows = [self._pairs, self._coef[0]]
        run_cuts = [(self._pairs, 2, 4), (self._coef[0], 0, 1)]
        if spec.rule == FIXED_SAVING:
            lam = per_row([s.lambda_fixed for s in specs])
            slot_rows.append(lam)
            run_cuts.append((lam, 0, 1))
        elif spec.rule == DISTRIBUTED_SAVING:
            # per slot: lam_i of every economy, 1 - lam_i, and 1 - lam_j
            self._lam = np.empty((n, 2 * rows))
            self._keep = np.empty((n, 2 * rows))
            slot_rows += [self._lam[:, :rows], self._keep[:, :rows], self._keep[:, rows:]]
            run_cuts += [(self._lam, 2, 3), (self._keep, 2, 3), (self._keep, 3, 4)]
        elif spec.rule == GENERAL:
            slot_rows.append(self._coef[1])
            run_cuts.append((self._coef[1], 0, 1))
        self._slot_rows = slot_rows
        self._run_cuts = [(x.reshape(-1), lo, hi) for x, lo, hi in run_cuts] if by_runs else None
        self._gathered = np.empty(0)
        self._views = {}

    def _scratch(self, length: int) -> tuple:
        """Flat scratch for a run of ``length`` slots: the gathered wealths (i of
        every row and slot, then j) with their halves, the new ones likewise,
        each pair's total and a temporary.  The buffers grow to the longest run
        seen, and the views for each run length are made once."""
        views = self._views.get(length)
        if views is None:
            size = length * self.rows
            if 2 * size > len(self._gathered):
                most = max(2 * size, 2 * len(self._gathered))
                self._gathered, self._out = np.empty((2, most))
                self._total, self._tmp = np.empty((2, most // 2))
                self._views = {}
            v, out = self._gathered[: 2 * size], self._out[: 2 * size]
            views = (v, v[:size], v[size:], out, out[:size], out[size:],
                     self._total[:size], self._tmp[:size])
            self._views[length] = views
        return views

    def _draw(self):
        """Make the step's draws and return its runs: per run of slots, what
        its update reads (see ``_slot_rows``), then its scratch."""
        spec, n = self.spec, self.n_agents
        cells, streams = self._cells, self._streams
        self._draws.draw(self._drawn)
        _partners(spec, self._drawn_pairs)
        bounds = None
        if self._by_runs:
            bounds = run_bounds(self._drawn_pairs, streams)
            runs = self._run_draws.reshape(2 * n, streams)
            runs[run_rows(bounds)] = self._drawn_pairs.reshape(2 * n, streams)
        np.add(
            self._run_draws.reshape(2 * n, 1, streams),
            self._offsets,
            out=self._pairs.reshape(2 * n, cells, streams),
        )
        if self._scale is not None:
            coefs = len(self._coef)
            np.multiply(
                self._drawn_coef.reshape(coefs, n, 1, streams),
                self._scale,
                out=self._coef.reshape(coefs, n, cells, streams),
            )
        if spec.rule == DISTRIBUTED_SAVING:
            np.take(self.saving, self._pairs, out=self._lam, mode="clip")
            np.subtract(1.0, self._lam, out=self._keep)
        if bounds is None:  # slot by slot
            return zip(*self._slot_rows, repeat(self._scratch(1)))
        return self._runs(bounds)

    def _runs(self, bounds: list[int]):
        rows, run_cuts = self.rows, self._run_cuts
        for a, b in zip(bounds, bounds[1:]):
            cuts = (a * rows, b * rows, 2 * a * rows, (a + b) * rows, 2 * b * rows)
            yield (*[x[cuts[lo] : cuts[hi]] for x, lo, hi in run_cuts], self._scratch(b - a))

    def step(self) -> None:
        """Run one time step (N slots) of every row in place."""
        runs = self._draw()
        w = self.wealth
        rule = self.spec.rule
        # Each line repeats one operation of run_time_step's loop, operands in the
        # same order.  min(total, new_i) is its clamp: new_j = total - new_i < 0
        # exactly when new_i > total, and then new_i = total gives new_j = 0.
        # On a tie np.minimum returns its second operand, so new_i keeps its own
        # bits (a -0.0 from eps = -0.0 included), as it does in run_time_step.
        # take with mode="clip" gathers without a buffer; the indices are in range.
        if rule == PURE_GAMBLING:
            for pair, e, scratch in runs:
                v, wi, wj, out, new_i, new_j, total, _ = scratch
                w.take(pair, out=v, mode="clip")
                np.add(wi, wj, out=total)
                np.multiply(e, total, out=new_i)
                np.minimum(total, new_i, out=new_i)
                np.subtract(total, new_i, out=new_j)
                w[pair] = out
        elif rule == FIXED_SAVING:
            for pair, c, lam, scratch in runs:
                v, wi, wj, out, new_i, new_j, total, tmp = scratch
                w.take(pair, out=v, mode="clip")
                np.add(wi, wj, out=total)
                np.multiply(lam, wi, out=new_i)
                np.multiply(c, total, out=tmp)
                np.add(new_i, tmp, out=new_i)
                np.minimum(total, new_i, out=new_i)
                np.subtract(total, new_i, out=new_j)
                w[pair] = out
        elif rule == DISTRIBUTED_SAVING:
            for pair, e, lam_i, keep_i, keep_j, scratch in runs:
                v, wi, wj, out, new_i, new_j, total, tmp = scratch
                w.take(pair, out=v, mode="clip")
                np.add(wi, wj, out=total)
                np.multiply(keep_i, wi, out=tmp)
                np.multiply(keep_j, wj, out=new_j)
                np.add(tmp, new_j, out=tmp)
                np.multiply(e, tmp, out=tmp)
                np.multiply(lam_i, wi, out=new_i)
                np.add(new_i, tmp, out=new_i)
                np.minimum(total, new_i, out=new_i)
                np.subtract(total, new_i, out=new_j)
                w[pair] = out
        else:  # GENERAL: no clamp, outputs may be negative
            for pair, e1, e2, scratch in runs:
                v, wi, wj, out, new_i, new_j, total, tmp = scratch
                w.take(pair, out=v, mode="clip")
                np.multiply(e1, wi, out=new_i)
                np.multiply(e2, wj, out=tmp)
                np.add(new_i, tmp, out=new_i)
                np.add(wi, wj, out=total)
                np.subtract(total, new_i, out=new_j)
                w[pair] = out
