"""Equilibrium wealth sampling: pooled histograms and propensity-binned means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .exchange import DISTRIBUTED_SAVING, ModelSpec, init_ensemble, saving_propensities
from .exchange import run_time_step  # noqa: F401  (perfbench/child.py times it under this name)
from .expfit import _linear_fit
from .streams import RngStream, map_stream_blocks


@dataclass
class EquilibriumSample:
    """Post-equilibration state pooled over configurations."""

    wealth: np.ndarray          # final snapshot per agent, all configs
    saving: np.ndarray          # quenched propensity per agent, all configs
    wealth_time_avg: np.ndarray  # per-agent wealth averaged over sample steps
    n_configs: int
    n_agents: int


def _equilibrium_block(args) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Pooled (wealth, saving, time-averaged wealth) of streams [start, stop).

    Top-level so a process pool can pickle it.  The configurations run in one
    block.EnsembleBlock, bit for bit as run_time_step steps each one: first
    ``equil_steps`` steps, then ``sample_steps`` steps over which the wealth is
    averaged (with none, the average is the final snapshot).  Saving is None
    unless the propensities are drawn: the caller builds constant ones from
    the spec instead of receiving them from every worker.
    """
    spec, n, equil_steps, sample_steps, master_seed, start, stop = args
    from .block import EnsembleBlock  # not at import: the CLI's start need not compile it

    rngs = [RngStream(master_seed, c) for c in range(start, stop)]
    block = EnsembleBlock(spec, [init_ensemble(spec, n, rng) for rng in rngs], rngs)
    for _ in range(equil_steps):
        block.step()
    if sample_steps <= 0:
        return block.wealth, block.saving, block.wealth
    acc = np.zeros_like(block.wealth)
    for _ in range(sample_steps):
        block.step()
        acc += block.wealth
    acc /= sample_steps
    return block.wealth, block.saving, acc


def run_equilibrium(
    spec: ModelSpec,
    n: int,
    equil_steps: int,
    sample_steps: int,
    n_configs: int,
    master_seed: int,
    workers: int = 1,
) -> EquilibriumSample:
    """Equilibrate each configuration, then pool final and time-averaged wealth."""
    if n_configs < 1:
        raise InvalidParameter(f"n_configs={n_configs} must be >= 1")
    spec.validate()
    parts = map_stream_blocks(
        _equilibrium_block,
        (spec, n, equil_steps, sample_steps, master_seed),
        n_configs,
        workers,
    )
    return EquilibriumSample(
        wealth=np.concatenate([p[0] for p in parts]),
        saving=(
            np.concatenate([p[1] for p in parts])
            if spec.rule == DISTRIBUTED_SAVING
            else saving_propensities(spec, n * n_configs)
        ),
        wealth_time_avg=np.concatenate([p[2] for p in parts]),
        n_configs=n_configs,
        n_agents=n,
    )


def wealth_histogram(
    values: np.ndarray, bins: int = 50
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-width histogram over [0, max observed]: (edges, counts, density)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise InvalidParameter("no samples to histogram")
    vmax = float(values.max())
    if vmax <= 0.0:
        raise InvalidParameter("all samples are zero; histogram range is empty")
    counts, edges = np.histogram(values, bins=bins, range=(0.0, vmax))
    width = edges[1] - edges[0]
    density = counts / (values.size * width)
    return edges, counts, density


def fit_histogram_slope(
    edges: np.ndarray, counts: np.ndarray, min_count: int = 10
) -> tuple[float, float]:
    """Semi-log slope of the histogram over bins with enough statistics.

    Returns (slope, r_squared) of ln(density) against bin centers; an
    exponential distribution exp(-w/T)/T comes out as slope -1/T.
    """
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    width = edges[1] - edges[0]
    mask = counts >= min_count
    if int(mask.sum()) < 3:
        raise InvalidParameter("too few well-populated bins for a slope fit")
    density = counts[mask] / (total * width)
    slope, _, r_squared, _ = _linear_fit(centers[mask], np.log(density))
    return slope, r_squared


def lambda_binned_means(
    saving: np.ndarray,
    wealth: np.ndarray,
    n_bins: int = 5,
    window: tuple[float, float] = (0.0, 1.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean wealth per equal-width propensity bin: (bin_lo, bin_hi, mean)."""
    saving = np.asarray(saving, dtype=float)
    wealth = np.asarray(wealth, dtype=float)
    if saving.shape != wealth.shape:
        raise InvalidParameter("saving and wealth arrays must align")
    lo, hi = window
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(saving, edges) - 1, 0, n_bins - 1)
    means = np.empty(n_bins)
    for b in range(n_bins):
        sel = idx == b
        means[b] = wealth[sel].mean() if sel.any() else np.nan
    return edges[:-1], edges[1:], means
