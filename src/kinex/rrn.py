"""Random resistor network relaxed by synchronous local Kirchhoff updates.

An L x L node lattice carries random bond conductances.  The top row is held
at potential 1, the bottom row at 0, and the lattice wraps horizontally
(bus-bar geometry).  One relaxation step replaces every interior potential
with the conductance-weighted average of its neighbors, computed from the
previous sweep only (Jacobi), so results do not depend on visitation order.
The per-sweep observable is the mean absolute potential change over interior
nodes, the direct analog of the wealth-model observable.

The stencil's numpy statement, :func:`kernel.neighbor_sum`, lives beside the
kernel's sweep check, which is its oracle use; this module imports it from
there, with the kernel's loader, at its own import.  The CLI imports this
module only when ``kinex rrn`` runs, and the lattice's initial-potential names
(``INIT_HALF`` ...) come from :mod:`relaxation`, where config load reads them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, ShapeError
from .kernel import library, neighbor_sum
from .relaxation import INIT_HALF, INIT_RAMP, RelaxationSeries, _check_lattice, cell_series
from .relaxation import LATTICE_INITS  # noqa: F401  (the lattice's init names, as rrn's own)
from .streams import RngStream

G_FLOOR = 1e-9  # excludes zero-conductance bonds so no node is isolated


@dataclass(frozen=True)
class ResistorLattice:
    """Node potentials plus bond conductances on the wrapped square lattice.

    ``cond_h[r, c]`` joins (r, c) to (r, (c+1) mod L); ``cond_v[r, c]`` joins
    (r, c) to (r+1, c).  Rows 0 and L-1 are boundary rows and never change.

    The compiled kernel (:mod:`kernel`) sweeps the arrays through pointers
    taken here, so construction refuses any array whose shape, dtype or layout
    the kernel would misread, before any call into it, and the lattice is
    frozen.  The conductances must not change after construction; the
    potentials may be written in place, boundary rows included, between
    sweeps.  The lattice also owns a second L x L buffer: the kernel's sweeps
    alternate between it and ``potential``, each reading one and writing the
    other, and leave the result in ``potential``.
    """

    side: int
    potential: np.ndarray
    cond_h: np.ndarray
    cond_v: np.ndarray
    g_window: tuple[float, float]
    weight_sum: np.ndarray = field(init=False, repr=False)
    _kernel: object = field(init=False, repr=False)
    _spare: np.ndarray = field(init=False, repr=False)
    _sweep_args: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        L = self.side
        if not L >= 3:
            raise InvalidParameter(f"lattice side {L} leaves no interior rows; need L >= 3")
        for name, shape in (("potential", (L, L)), ("cond_h", (L, L)), ("cond_v", (L - 1, L))):
            a = getattr(self, name)
            if np.shape(a) != shape:
                raise ShapeError(f"{name} has shape {np.shape(a)}; a side-{L} lattice needs {shape}")
            if not isinstance(a, np.ndarray) or a.dtype != np.float64 or not a.flags.c_contiguous:
                raise InvalidParameter(f"{name} must be a C-contiguous float64 array")
        if not self.potential.flags.writeable:
            raise InvalidParameter("potential must be writeable")
        setattr_ = functools.partial(object.__setattr__, self)
        setattr_("_kernel", library())
        # the neighbor sum of unit potentials, bit for bit the sum of a node's conductances
        weight_sum = neighbor_sum(self.cond_h, self.cond_v, np.ones((L, L)))
        if not (weight_sum > 0.0).all():
            raise InvalidParameter("every interior node needs a positive sum of conductances")
        setattr_("weight_sum", weight_sum)
        setattr_("_spare", np.empty((L, L)))
        arrays = (self.cond_v, self.cond_h, weight_sum, self.potential, self._spare)
        setattr_("_sweep_args", (int(L), *(a.ctypes.data for a in arrays)))

    def n_interior(self) -> int:
        return (self.side - 2) * self.side


def build_lattice(
    L: int,
    g_window: tuple[float, float],
    rng: RngStream,
    init: str = INIT_HALF,
) -> ResistorLattice:
    """Sample bond conductances uniformly in [max(g_min, 1e-9), g_max].

    A bond is ``g_max - u (g_max - lo)`` for ``u`` in [0, 1), with
    ``lo = max(g_min, 1e-9)``; at the largest ``u`` it can round to ``lo``
    (for the window (0.5, 1), say).  The floor keeps every bond strictly
    positive even for a window starting at 0.  Horizontal bonds are drawn
    before vertical ones.
    """
    _check_lattice(L, (g_window,), init)
    g_min, g_max = g_window
    g = rng.gen
    lo = max(g_min, G_FLOOR)
    cond_h = g_max - g.random((L, L)) * (g_max - lo)
    cond_v = g_max - g.random((L - 1, L)) * (g_max - lo)

    potential = np.empty((L, L))
    if init == INIT_HALF:
        potential[:] = 0.5
    elif init == INIT_RAMP:
        potential[:] = (1.0 - np.arange(L) / (L - 1))[:, None]
    else:
        potential[1:-1, :] = g.random((L - 2, L))
    potential[0, :] = 1.0
    potential[-1, :] = 0.0
    return ResistorLattice(
        side=L, potential=potential, cond_h=cond_h, cond_v=cond_v, g_window=g_window
    )


def relax_sweep(lat: ResistorLattice) -> float:
    """One synchronous sweep; every interior node moves to the weighted average
    of its neighbors from the previous sweep.  Updates in place and returns the
    mean absolute potential change over interior nodes, summed in row-major
    order, so its bits are the same on any host with IEEE doubles.
    """
    return float(_relax(lat, 1)[0])


def _relax(lat: ResistorLattice, t_max: int) -> np.ndarray:
    """``t_max`` sweeps of ``lat`` in one kernel call; each sweep's mean
    absolute potential change, as :func:`relax_sweep` returns it."""
    xs = np.empty(t_max)
    lat._kernel.kx_relax(*lat._sweep_args, t_max, xs.ctypes.data)
    return xs


def node_current_residuals(lat: ResistorLattice) -> np.ndarray:
    """Net current into each interior node, sum_nb g_nb (V_nb - V_node).

    Zero everywhere exactly at the Kirchhoff solution.
    """
    V = lat.potential
    return neighbor_sum(lat.cond_h, lat.cond_v, V) - lat.weight_sum * V[1:-1, :]


def solve_kirchhoff_dense(lat: ResistorLattice) -> np.ndarray:
    """Exact interior potentials by direct dense solve of the Kirchhoff system.

    Independent of the sweep iteration; assembles the (n_interior x n_interior)
    conductance matrix explicitly and calls a dense linear solver.  Intended as
    a cross-check at small L.
    """
    L = lat.side
    n_rows = L - 2
    n = n_rows * L
    A = np.zeros((n, n))
    b = np.zeros(n)

    def k_of(r: int, c: int) -> int:
        return (r - 1) * L + c

    for r in range(1, L - 1):
        for c in range(L):
            k = k_of(r, c)
            neighbors = (
                (r - 1, c, lat.cond_v[r - 1, c]),
                (r + 1, c, lat.cond_v[r, c]),
                (r, (c + 1) % L, lat.cond_h[r, c]),
                (r, (c - 1) % L, lat.cond_h[r, (c - 1) % L]),
            )
            for rr, cc, g in neighbors:
                A[k, k] -= g
                if rr == 0:
                    b[k] -= g * 1.0
                elif rr == L - 1:
                    b[k] -= g * 0.0
                else:
                    A[k, k_of(rr, cc)] += g
    v = np.linalg.solve(A, b)
    return v.reshape(n_rows, L)


def _realization_series(L, g_window, t_max, init, rng: RngStream) -> np.ndarray:
    return _relax(build_lattice(L, g_window, rng, init=init), t_max)


def run_rrn_relaxation(
    L: int,
    g_window: tuple[float, float] | tuple[tuple[float, float], ...],
    t_max: int,
    n_configs: int,
    master_seed: int,
    workers: int = 1,
    init: str = INIT_HALF,
) -> RelaxationSeries | list[RelaxationSeries]:
    """Average the sweep observable over independent conductance realizations.

    One time step equals one full lattice sweep; realization c uses stream
    (master_seed, c), and the realizations are averaged in stream order
    (:func:`relaxation.stream_mean`).  ``g_window`` may be a tuple of windows,
    the cells of a sweep: the result is then a list of their series from one
    fan-out, each the same bits as the window's own run, since every window
    builds realization c's lattice from a fresh stream (master_seed, c).
    """
    single = np.ndim(g_window) == 1
    windows = (g_window,) if single else tuple(g_window)

    def traces(start: int, stop: int) -> np.ndarray:
        """Sweep traces of realizations [start, stop), shape (realizations, windows, t_max)."""
        return np.array([
            [_realization_series(L, w, t_max, init, RngStream(master_seed, c)) for w in windows]
            for c in range(start, stop)
        ])

    labels = [f"rrn-L{L}-g{w[0]:g}-{w[1]:g}" for w in windows]
    series = cell_series(traces, labels, (L - 2) * L, t_max, n_configs, master_seed, workers)
    return series[0] if single else series
