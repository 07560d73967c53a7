"""Pairwise wealth-exchange rules and the N-interaction time step.

The scalar ``exchange_*`` functions state each rule; :func:`run_time_step`
applies them, one interaction at a time, to one economy, and is the oracle
:class:`block.EnsembleBlock` is tested against: the block repeats the same
operations for a block of economies, bit for bit.

All rules are zero-sum: every interaction redistributes the pair total
``w_i + w_j`` between the two agents.  Conservation is enforced structurally
by computing one share and assigning the partner ``total - share``, so the
pair total is preserved to the last ulp and the ensemble total drifts only
through benign rounding noise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, InvalidSize, TopologyMismatch
from .streams import RngStream, replay

# Exchange rules
PURE_GAMBLING = "pure_gambling"
FIXED_SAVING = "fixed_saving"
DISTRIBUTED_SAVING = "distributed_saving"
GENERAL = "general"
RULES = (PURE_GAMBLING, FIXED_SAVING, DISTRIBUTED_SAVING, GENERAL)

# Pairing topologies
MEAN_FIELD = "mean_field"
LATTICE_2D = "lattice2d"
PAIRINGS = (MEAN_FIELD, LATTICE_2D)

# Initial wealth configurations
EQUAL_UNIT = "equal_unit"
UNIFORM_RANDOM = "uniform_random"
DELTA_ONE_AGENT = "delta_one_agent"
INITS = (EQUAL_UNIT, UNIFORM_RANDOM, DELTA_ONE_AGENT)


@dataclass(frozen=True)
class ModelSpec:
    """Which exchange rule runs, with its parameter distributions and topology.

    ``eps_fixed=None`` redraws the split parameter uniformly in [0, 1) for
    every interaction; a float holds it constant for the whole run.  Saving
    propensities are quenched: drawn once at init, fixed for the run.
    """

    rule: str = PURE_GAMBLING
    lambda_fixed: float = 0.0
    lambda_window: tuple[float, float] = (0.0, 1.0)
    eps_fixed: float | None = None
    eps1_window: tuple[float, float] = (0.0, 1.0)
    eps2_window: tuple[float, float] = (0.0, 1.0)
    pairing: str = MEAN_FIELD
    lattice_side: int | None = None
    init: str = EQUAL_UNIT
    init_total: float | None = None

    def validate(self) -> None:
        if self.rule not in RULES:
            raise InvalidParameter(f"unknown rule {self.rule!r}")
        if self.pairing not in PAIRINGS:
            raise InvalidParameter(f"unknown pairing {self.pairing!r}")
        if self.init not in INITS:
            raise InvalidParameter(f"unknown init {self.init!r}")
        if self.rule == FIXED_SAVING and not 0.0 <= self.lambda_fixed < 1.0:
            raise InvalidParameter(f"lambda_fixed={self.lambda_fixed} outside [0,1)")
        if self.rule == DISTRIBUTED_SAVING:
            lo, hi = self.lambda_window
            # draws are half-open [lo, hi), so hi == 1 still keeps every lambda < 1
            if not (0.0 <= lo < hi <= 1.0):
                raise InvalidParameter(f"lambda_window={self.lambda_window} invalid")
        if self.eps_fixed is not None and not 0.0 <= self.eps_fixed <= 1.0:
            raise InvalidParameter(f"eps_fixed={self.eps_fixed} outside [0,1]")
        if self.rule == GENERAL:
            for name, (lo, hi) in (("eps1_window", self.eps1_window),
                                   ("eps2_window", self.eps2_window)):
                if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                    raise InvalidParameter(f"{name}=({lo},{hi}) invalid")
        if self.pairing == LATTICE_2D:
            if self.lattice_side is None or self.lattice_side < 2:
                raise InvalidParameter("lattice2d pairing needs lattice_side >= 2")
        if self.init_total is not None and not self.init_total > 0.0:
            raise InvalidParameter(f"init_total={self.init_total} must be > 0")

    def digest(self) -> str:
        """Stable 64-bit content hash, used in CSV headers and manifests."""
        payload = json.dumps(
            {k: v for k, v in self.__dict__.items()}, sort_keys=True, default=str
        )
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


@dataclass
class AgentEnsemble:
    """The simulated economy: per-agent wealth and quenched saving propensity."""

    wealth: np.ndarray
    saving: np.ndarray
    n_agents: int

    def total_wealth(self) -> float:
        return float(self.wealth.sum())


def init_ensemble(spec: ModelSpec, n: int, rng: RngStream) -> AgentEnsemble:
    """Populate an ensemble of ``n`` agents per the spec's init and rule.

    Draw order (when draws are needed): initial wealths first, then saving
    propensities.  Raises InvalidSize for n < 2 and TopologyMismatch when a
    2D lattice side does not square to n.
    """
    if n < 2:
        raise InvalidSize(f"need at least 2 agents, got {n}")
    spec.validate()
    if spec.pairing == LATTICE_2D:
        side = spec.lattice_side or 0
        if side * side != n:
            raise TopologyMismatch(f"lattice side {side} squared != n={n}")

    g = rng.gen
    if spec.init == EQUAL_UNIT:
        wealth = np.ones(n)
    elif spec.init == UNIFORM_RANDOM:
        total = spec.init_total if spec.init_total is not None else float(n)
        u = g.random(n)
        wealth = u * (total / u.sum())
    else:  # DELTA_ONE_AGENT
        total = spec.init_total if spec.init_total is not None else float(n)
        wealth = np.zeros(n)
        wealth[0] = total

    return AgentEnsemble(wealth=wealth, saving=saving_propensities(spec, n, g), n_agents=n)


def saving_propensities(spec: ModelSpec, n: int, g: np.random.Generator | None = None) -> np.ndarray:
    """``n`` quenched saving propensities: drawn from ``g`` under distributed
    saving, else the rule's constant (lambda_fixed, or 0 without saving)."""
    if spec.rule == DISTRIBUTED_SAVING:
        lo, hi = spec.lambda_window
        return lo + (hi - lo) * g.random(n)
    return np.full(n, spec.lambda_fixed if spec.rule == FIXED_SAVING else 0.0)


def exchange_pure_gambling(w_i: float, w_j: float, eps: float) -> tuple[float, float]:
    """Split the pair total at random: i keeps eps*(w_i+w_j), j the rest."""
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameter(f"eps={eps} outside [0,1]")
    total = w_i + w_j
    new_i = eps * total
    new_j = total - new_i
    if new_j < 0.0:  # rounding guard; mathematically new_i <= total
        return total, 0.0
    return new_i, new_j


def exchange_fixed_saving(w_i: float, w_j: float, lam: float, eps: float) -> tuple[float, float]:
    """Both agents withhold a lam-fraction; the pooled remainder is split by eps."""
    if not 0.0 <= lam < 1.0:
        raise InvalidParameter(f"lam={lam} outside [0,1)")
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameter(f"eps={eps} outside [0,1]")
    total = w_i + w_j
    new_i = lam * w_i + eps * (1.0 - lam) * total
    new_j = total - new_i
    if new_j < 0.0:
        return total, 0.0
    return new_i, new_j


def exchange_distributed_saving(
    w_i: float, w_j: float, lam_i: float, lam_j: float, eps: float
) -> tuple[float, float]:
    """Per-agent saving propensities; i gets lam_i*w_i plus an eps share of the pool."""
    if not (0.0 <= lam_i < 1.0 and 0.0 <= lam_j < 1.0):
        raise InvalidParameter(f"lam_i={lam_i}, lam_j={lam_j} outside [0,1)")
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameter(f"eps={eps} outside [0,1]")
    total = w_i + w_j
    new_i = lam_i * w_i + eps * ((1.0 - lam_i) * w_i + (1.0 - lam_j) * w_j)
    new_j = total - new_i
    if new_j < 0.0:
        return total, 0.0
    return new_i, new_j


def exchange_general(w_i: float, w_j: float, eps1: float, eps2: float) -> tuple[float, float]:
    """Two-coefficient linear exchange; coefficients may be negative, so outputs may be too."""
    total = w_i + w_j
    new_i = eps1 * w_i + eps2 * w_j
    return new_i, total - new_i


@lru_cache(maxsize=8)
def _lattice_neighbors(side: int) -> np.ndarray:
    """(side*side, 4) von Neumann neighbor table on a periodic square lattice."""
    n = side * side
    idx = np.arange(n)
    r, c = idx // side, idx % side
    nbr = np.empty((n, 4), dtype=np.int64)
    nbr[:, 0] = ((r - 1) % side) * side + c
    nbr[:, 1] = ((r + 1) % side) * side + c
    nbr[:, 2] = r * side + (c - 1) % side
    nbr[:, 3] = r * side + (c + 1) % side
    return nbr


@lru_cache(maxsize=8)
def _lattice_table(side: int) -> np.ndarray:
    """Partner lookup for :func:`_partners`: entry a < n is agent a itself, and
    entry (d + 1) * n + a is a's neighbor in direction d."""
    nbr = _lattice_neighbors(side)
    return np.concatenate([np.arange(len(nbr)), nbr.T.ravel()])


def _partners(spec: ModelSpec, pairs: np.ndarray) -> None:
    """Map raw partner draws to agent indices, in place.

    ``pairs`` is C-contiguous, ``(2 * rows,)`` for one slot or ``(slots, 2 *
    rows)``: per slot the first agent of every row, then every row's raw
    partner draw, which becomes an agent index.  run_time_step passes one
    economy's step as one slot of n rows.
    """
    rows = pairs.shape[-1] // 2
    first, second = pairs[..., :rows], pairs[..., rows:]
    if spec.pairing == MEAN_FIELD:
        second += second >= first  # shift past i so that j != i
        return
    side = spec.lattice_side
    second += 1
    second *= side * side
    second += first
    # take reads each index before it writes that element, so it can map in
    # place; "clip" keeps it from buffering the output (indices are in range)
    np.take(_lattice_table(side), pairs, out=pairs, mode="clip")


def _step_plan(spec: ModelSpec, n: int) -> tuple:
    """The one statement of a step's draws, as ``(name, *args)`` Generator calls:
    each slot's first agent, its partner (an index among the other n-1 agents,
    or a lattice direction), then the split parameters in the modes that draw
    them.  run_time_step and EnsembleBlock both draw exactly this."""
    partner_span = n - 1 if spec.pairing == MEAN_FIELD else 4
    plan = (("integers", 0, n, n), ("integers", 0, partner_span, n))
    if spec.rule == GENERAL:
        # numpy's uniform refuses a window whose high - low is -0.0, as (0.0, -0.0)
        # gives; adding 0.0 turns a -0.0 bound into 0.0 and changes no draw
        (lo1, hi1), (lo2, hi2) = spec.eps1_window, spec.eps2_window
        return plan + (("uniform", lo1, hi1 + 0.0, n), ("uniform", lo2, hi2 + 0.0, n))
    if spec.eps_fixed is None:
        return plan + (("random", n),)
    return plan


def _draw_pairs(spec: ModelSpec, n: int, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One step's pairs: the first agent of each slot and its partner."""
    pairs = np.concatenate(replay(g, _step_plan(spec, n)[:2]))
    _partners(spec, pairs)
    return pairs[:n], pairs[n:]


def run_time_step(ens: AgentEnsemble, spec: ModelSpec, rng: RngStream) -> float:
    """Run one time step (= N pair interactions) in place.

    Returns the summed absolute per-agent wealth change between the step's
    boundary snapshots, i.e. sum_i |w_i(after) - w_i(before)|; dividing by N
    gives the relaxation observable for this step.

    Each step draws what :func:`_step_plan` lists, so runs are reproducible
    per (master_seed, stream), then applies the rule's ``exchange_*`` function
    to the N pairs in slot order.
    """
    n = ens.n_agents
    before = ens.wealth.copy()
    w = ens.wealth.tolist()
    ii, raw, *eps = replay(rng.gen, _step_plan(spec, n))
    pairs = np.concatenate((ii, raw))
    _partners(spec, pairs)
    ii, jj = pairs[:n].tolist(), pairs[n:].tolist()
    rule = spec.rule
    if rule == GENERAL:
        e1, e2 = (e.tolist() for e in eps)
        for i, j, a, b in zip(ii, jj, e1, e2):
            w[i], w[j] = exchange_general(w[i], w[j], a, b)
    else:
        ee = eps[0].tolist() if eps else [spec.eps_fixed] * n
        if rule == PURE_GAMBLING:
            for i, j, e in zip(ii, jj, ee):
                w[i], w[j] = exchange_pure_gambling(w[i], w[j], e)
        elif rule == FIXED_SAVING:
            lam = spec.lambda_fixed
            for i, j, e in zip(ii, jj, ee):
                w[i], w[j] = exchange_fixed_saving(w[i], w[j], lam, e)
        else:  # DISTRIBUTED_SAVING
            sav = ens.saving.tolist()
            for i, j, e in zip(ii, jj, ee):
                w[i], w[j] = exchange_distributed_saving(w[i], w[j], sav[i], sav[j], e)

    after = np.asarray(w)
    ens.wealth = after
    return float(np.abs(after - before).sum())
