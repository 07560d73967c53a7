"""The block kernel: economies stepped together by the compiled step kernel
(:mod:`kernel`), bit for bit as :func:`exchange.run_time_step` steps each one,
and the draw signature that decides which sweep cells share a block.

In a sweep, configuration c of every cell draws from stream (master_seed, c).
Cells whose draws are the same on every stream, call for call, differ only in
the parameters the draws feed (the saving-propensity window, a fixed split or
saving fraction), so one block steps them together: the kernel draws once per
stream and applies the draws to every cell's economy on that stream.

Wealth-model runs import this module, and with it the kernel's loader, when
they start, not at the CLI's start: where no bytecode cache is written, every
start would otherwise compile them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .exchange import (
    LATTICE_2D,
    RULES,
    ModelSpec,
    _check_economy,
    _init_draws,
    _init_economies,
    _lattice_neighbors,
    _step_plan,
)
from .kernel import library, seed_words


def draw_signature(spec: ModelSpec, n: int) -> tuple:
    """What fixes a run's draws and the block's update: rule, pairing and
    lattice side, n, init and the step's draws (:func:`exchange._step_plan`).
    Cells with equal signatures draw the same values from the same stream."""
    side = spec.lattice_side if spec.pairing == LATTICE_2D else None
    return (spec.rule, spec.pairing, side, n, spec.init, _step_plan(spec, n))


class EnsembleBlock:
    """Economies of n agents advanced together, one time step per :meth:`step`,
    or a whole relaxation series per :meth:`run`.

    Row ``k * S + s`` of a block on the S streams ``start <= c < stop`` is cell
    k's economy on stream (master_seed, start + s), initialised from that
    stream's fresh state; ``spec`` is one ModelSpec or the specs of sweep cells
    that share their draws (see :func:`draw_signature`).  Its wealth occupies
    ``wealth[r*n:(r+1)*n]`` of one flat array.  Each stream is six PCG64 words
    of the block's own, made fresh by :func:`kernel.seed_words` with no numpy
    Generator; the kernel makes the init's draws on them, as
    :func:`exchange.init_ensemble` makes them.  On every step each stream
    makes exactly the draws :func:`exchange._step_plan` lists, as
    :func:`exchange.run_time_step` makes them, and every cell's row on that
    stream applies them to its N slots in order, with the cell's own saving and
    split parameters and run_time_step's operations and clamp: each economy
    gets run_time_step's bits.  ``wealth`` and ``saving`` are the block's
    arrays, each row r at ``[r*n:(r+1)*n]``: row r's wealth, which the kernel
    writes in place, and its agents' saving propensities, drawn or the rule's
    constant (:func:`exchange._init_economies`).
    """

    def __init__(self, spec: ModelSpec | tuple[ModelSpec, ...], n: int, master_seed: int,
                 start: int, stop: int):
        if not 0 <= start < stop:
            raise InvalidParameter(f"stream range start={start}, stop={stop} needs 0 <= start < stop")
        specs = (spec,) if isinstance(spec, ModelSpec) else tuple(spec)
        if len({draw_signature(s, n) for s in specs}) > 1:
            raise InvalidParameter("a block's cells must make the same draws")
        for s in specs:
            _check_economy(s, n)
        lib = library()
        self._step, self._run = lib.kx_step, lib.kx_run
        states = seed_words(lib, master_seed, start, stop)
        # Every cell's init makes the same draws (its init and rule are in the
        # draw signature), so each stream draws them once, for all cells.
        streams, size = stop - start, _init_draws(specs[0]) * n
        u = np.empty((streams, size))
        words, drawn = states.ctypes.data, u.ctypes.data
        for row in range(streams if size else 0):
            lib.kx_uniform(words + row * states.strides[0], 0.0, 1.0, size, drawn + row * u.strides[0])
        economies = [_init_economies(s, n, u) for s in specs]
        spec = specs[0]
        lattice = _lattice_neighbors(spec.lattice_side) if spec.pairing == LATTICE_2D else None
        self.rows = len(specs) * streams
        self.n_agents = n
        self._wealth = np.concatenate([wealth for wealth, _ in economies]).reshape(-1)
        self._saving = np.concatenate([saving for _, saving in economies]).reshape(-1)
        _, (_, _, partner_span, _), *splits = _step_plan(spec, n)
        windows = [args[:2] if name == "uniform" else (0.0, 1.0) for name, *args in splits]
        # Every array the kernel reads or writes, held for the block's lifetime.
        self._arrays = arrays = [
            states,
            lattice,
            np.array(windows, dtype=np.float64).reshape(-1),
            np.array([0.0 if s.eps_fixed is None else s.eps_fixed for s in specs]),
            self._wealth,
            self._saving,
            *np.empty((2, n), dtype=np.int64),  # one stream's agents i and partners j
            *np.empty((2, n)),  # one stream's drawn splits
        ]
        pointers = [None if a is None else a.ctypes.data for a in arrays]
        # the kernel numbers the rules in the order of exchange.RULES
        self._args = (RULES.index(spec.rule), n, streams, len(specs), pointers[0], partner_span,
                      pointers[1], len(splits), *pointers[2:])

    # Read-only attributes: the kernel holds the arrays' addresses.
    @property
    def wealth(self) -> np.ndarray:
        return self._wealth

    @property
    def saving(self) -> np.ndarray:
        return self._saving

    def step(self) -> None:
        """Run one time step (N slots) of every row in place."""
        self._step(*self._args)

    def run(self, steps: int) -> np.ndarray:
        """Run ``steps`` time steps in one kernel call.  Returns (rows, steps):
        row r's sum_i |w_i(after) - w_i(before)| over step t, the value
        run_time_step returns, summed in numpy's order."""
        xs = np.empty((self.rows, steps))
        before = np.empty_like(self._wealth)
        self._run(*self._args, steps, before.ctypes.data, xs.ctypes.data)
        return xs
