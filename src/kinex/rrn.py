"""Random resistor network relaxed by synchronous local Kirchhoff updates.

An L x L node lattice carries random bond conductances.  The top row is held
at potential 1, the bottom row at 0, and the lattice wraps horizontally
(bus-bar geometry).  One relaxation step replaces every interior potential
with the conductance-weighted average of its neighbors, computed from the
previous sweep only (Jacobi), so results do not depend on visitation order.
The per-sweep observable is the mean absolute potential change over interior
nodes, the direct analog of the wealth-model observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .relaxation import RelaxationSeries, average_series
from .streams import RngStream

G_FLOOR = 1e-9  # excludes zero-conductance bonds so no node is isolated
# Largest lattice `kinex rrn` cross-checks with the dense solve: a 2500 x 2500
# matrix is 50 MB, where the preset side 100 (9800 nodes) would need 0.77 GB.
DENSE_MAX_INTERIOR = 2_500

INIT_HALF = "half"
INIT_RAMP = "ramp"
INIT_RANDOM = "random"
LATTICE_INITS = (INIT_HALF, INIT_RAMP, INIT_RANDOM)


@dataclass
class ResistorLattice:
    """Node potentials plus bond conductances on the wrapped square lattice.

    ``cond_h[r, c]`` joins (r, c) to (r, (c+1) mod L); ``cond_v[r, c]`` joins
    (r, c) to (r+1, c).  Rows 0 and L-1 are boundary rows and never change.

    The stencil (conductance slices, the rolled horizontal conductances and
    ``weight_sum``) and the sweep's scratch buffers are built once here, so the
    conductances must not change after construction.
    """

    side: int
    potential: np.ndarray
    cond_h: np.ndarray
    cond_v: np.ndarray
    g_window: tuple[float, float]
    weight_sum: np.ndarray = field(init=False, repr=False)
    _stencil: tuple = field(init=False, repr=False)
    _buffers: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gv_up, gv_dn = self.cond_v[:-1, :], self.cond_v[1:, :]
        gh = self.cond_h[1:-1, :]
        gh_left = np.roll(gh, 1, axis=1)
        self._stencil = (gv_up, gv_dn, gh, gh_left)
        self.weight_sum = gv_up + gv_dn + gh + gh_left
        self._buffers = tuple(_line_aligned_empty(gh.shape) for _ in range(3))

    def n_interior(self) -> int:
        return (self.side - 2) * self.side


def _line_aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte cache line.

    Every sweep writes its scratch buffers several times.  At L = 100 a sweep
    took 20-30% longer when they started mid-line, and where malloc puts them
    follows whatever the process allocated before, so the speed did too.
    """
    size = int(np.prod(shape))
    raw = np.empty(size + 7)  # numpy data is 8-byte aligned, so a line starts within 7
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size].reshape(shape)


def build_lattice(
    L: int,
    g_window: tuple[float, float],
    rng: RngStream,
    init: str = INIT_HALF,
) -> ResistorLattice:
    """Sample bond conductances uniformly in (max(g_min, 1e-9), g_max].

    The half-open orientation keeps every bond strictly positive even for a
    window starting at 0.  Horizontal bonds are drawn before vertical ones.
    """
    if L < 3:
        raise InvalidParameter(f"lattice side {L} leaves no interior rows; need L >= 3")
    g_min, g_max = g_window
    if not (0.0 <= g_min < g_max):
        raise InvalidParameter(f"conductance window ({g_min}, {g_max}) invalid")
    if init not in LATTICE_INITS:
        raise InvalidParameter(f"unknown lattice init {init!r}")

    g = rng.gen
    lo = max(g_min, G_FLOOR)
    # u in [0,1) mapped to (lo, g_max]
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


def _neighbor_sum(lat: ResistorLattice) -> np.ndarray:
    """sum_nb g_nb V_nb for every interior node, in the lattice's first buffer.

    The terms are added in a fixed order (up, down, right, left) with no
    allocation; the wrapped neighbor potentials are copied into a buffer.
    """
    gv_up, gv_dn, gh, gh_left = lat._stencil
    num, tmp, nb = lat._buffers
    V = lat.potential
    inner = V[1:-1, :]
    np.multiply(gv_up, V[:-2, :], out=num)
    np.multiply(gv_dn, V[2:, :], out=tmp)
    num += tmp
    nb[:, :-1] = inner[:, 1:]
    nb[:, -1] = inner[:, 0]
    np.multiply(gh, nb, out=tmp)
    num += tmp
    nb[:, 1:] = inner[:, :-1]
    nb[:, 0] = inner[:, -1]
    np.multiply(gh_left, nb, out=tmp)
    num += tmp
    return num


def relax_sweep(lat: ResistorLattice) -> float:
    """One synchronous sweep; every interior node moves to the weighted average
    of its neighbors from the previous sweep.  Updates in place and returns the
    mean absolute potential change over interior nodes.
    """
    new_inner = _neighbor_sum(lat)
    new_inner /= lat.weight_sum
    diff = lat._buffers[1]
    inner = lat.potential[1:-1, :]
    np.subtract(new_inner, inner, out=diff)
    np.abs(diff, out=diff)
    x = float(diff.mean())
    inner[...] = new_inner
    return x


def node_current_residuals(lat: ResistorLattice) -> np.ndarray:
    """Net current into each interior node, sum_nb g_nb (V_nb - V_node).

    Zero everywhere exactly at the Kirchhoff solution.
    """
    return _neighbor_sum(lat) - lat.weight_sum * lat.potential[1:-1, :]


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
    lat = build_lattice(L, g_window, rng, init=init)
    xs = np.empty(t_max)
    for t in range(t_max):
        xs[t] = relax_sweep(lat)
    return xs


def _block_series(args) -> np.ndarray:
    """Sweep traces of realizations [start, stop), shape (1, realizations, t_max);
    top-level so Pool can pickle it."""
    L, g_window, t_max, init, master_seed, start, stop = args
    return np.array([[
        _realization_series(L, g_window, t_max, init, RngStream(master_seed, c))
        for c in range(start, stop)
    ]])


def run_rrn_relaxation(
    L: int,
    g_window: tuple[float, float],
    t_max: int,
    n_configs: int,
    master_seed: int,
    workers: int = 1,
    init: str = INIT_HALF,
) -> RelaxationSeries:
    """Average the sweep observable over independent conductance realizations.

    One time step equals one full lattice sweep; realization c uses stream
    (master_seed, c).
    """
    return average_series(
        _block_series,
        (L, g_window, t_max, init, master_seed),
        t_max,
        n_configs,
        workers,
        [f"rrn-L{L}-g{g_window[0]:g}-{g_window[1]:g}"],
        n_agents=(L - 2) * L,
        master_seed=master_seed,
    )[0]
