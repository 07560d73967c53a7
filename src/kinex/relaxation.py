"""The relaxation observable and configuration-averaged relaxation series.

The observable for one time step is the mean absolute per-agent wealth change
between the step's boundary snapshots.  A relaxation run simulates many
independent initial configurations (one RNG stream each) and averages the
observable per step; the averaged series decays toward an equilibrium plateau.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InsufficientData, InvalidParameter, ShapeError
from .exchange import ModelSpec, init_ensemble
from .exchange import run_time_step  # noqa: F401  (perfbench/child.py times it under this name)
from .streams import RngStream, map_stream_blocks

DEFAULT_TAIL_FRACTION = 0.25


@dataclass
class RelaxationSeries:
    """Configuration-averaged relaxation observable, indexed by time step.

    ``spec`` labels what was simulated: the model digest, an RRN tag, or the
    label read back from a series CSV header.
    """

    t: np.ndarray
    x_mean: np.ndarray
    n_configs: int
    n_agents: int
    master_seed: int
    spec: str = "na"

    def __len__(self) -> int:
        return len(self.t)


def mean_abs_change(prev: np.ndarray, curr: np.ndarray) -> float:
    """Mean absolute per-agent change between two wealth snapshots."""
    prev = np.asarray(prev, dtype=float)
    curr = np.asarray(curr, dtype=float)
    if prev.shape != curr.shape:
        raise ShapeError(f"snapshot shapes differ: {prev.shape} vs {curr.shape}")
    if prev.size < 1:
        raise ShapeError("empty snapshots")
    return float(np.abs(curr - prev).mean())


def _block_series(args) -> np.ndarray:
    """Observable traces of streams [start, stop), shape (cells, configurations, t_max).

    Top-level so a process pool can pickle it.  ``specs`` are sweep cells that
    share their draws, or one spec; all of them run in one EnsembleBlock, bit
    for bit as run_time_step steps each configuration of each cell.
    """
    specs, n, t_max, master_seed, start, stop = args
    block = _cells_block(specs, n, master_seed, start, stop)
    xs = np.empty((block.rows, t_max))
    for t, changes in enumerate(_block_changes(block, t_max)):
        xs[:, t] = changes / n
    return xs.reshape(len(specs), stop - start, t_max)


def _cells_block(specs, n: int, master_seed: int, start: int, stop: int):
    """One block.EnsembleBlock of every cell's configurations on streams [start, stop)."""
    from .block import EnsembleBlock  # not at import: the CLI's start need not compile it

    ensembles = []
    for spec in specs:
        # every cell's init makes the same draws, so the streams left by the
        # last cell's stand where every cell's would
        rngs = [RngStream(master_seed, c) for c in range(start, stop)]
        ensembles += [init_ensemble(spec, n, rng) for rng in rngs]
    return EnsembleBlock(specs, ensembles, rngs)


def _block_changes(block, steps: int):
    """Step ``block``, an EnsembleBlock, ``steps`` times, yielding after each
    step every row's sum_i |w_i(after) - w_i(before)|, the value run_time_step
    returns."""
    before = np.empty_like(block.wealth)
    for _ in range(steps):
        np.copyto(before, block.wealth)
        block.step()
        np.subtract(block.wealth, before, out=before)
        np.abs(before, out=before)
        yield before.reshape(block.rows, block.n_agents).sum(axis=1)


def average_series(
    block_fn: Callable,
    args: tuple,
    t_max: int,
    n_configs: int,
    workers: int,
    labels: list[str],
    **meta,
) -> list[RelaxationSeries]:
    """Per cell, the mean of the per-configuration traces ``block_fn`` returns,
    summed in stream order.

    ``block_fn((*args, start, stop))`` returns the length-``t_max`` traces of
    configurations [start, stop) of every cell, shape (cells, stop - start,
    t_max); :func:`streams.map_stream_blocks` spreads the blocks over
    ``workers`` processes, sized for one cell per label.  The sums
    run in stream-index order, so any worker count yields bit-identical output.
    ``labels`` gives each cell's ``spec`` field and ``meta`` the remaining
    :class:`RelaxationSeries` fields (``n_agents``, ``master_seed``).
    """
    if t_max < 2:
        raise InvalidParameter(f"t_max={t_max} must be >= 2")
    if n_configs < 1:
        raise InvalidParameter(f"n_configs={n_configs} must be >= 1")
    blocks = map_stream_blocks(block_fn, args, n_configs, workers, len(labels))
    acc = np.zeros((len(labels), t_max))
    for traces in blocks:
        for xs in traces.swapaxes(0, 1):
            acc += xs
    return [
        RelaxationSeries(
            t=np.arange(1, t_max + 1), x_mean=x / n_configs, n_configs=n_configs, spec=label, **meta
        )
        for x, label in zip(acc, labels)
    ]


def run_relaxation(
    spec: ModelSpec | tuple[ModelSpec, ...],
    n: int,
    t_max: int,
    n_configs: int,
    master_seed: int,
    workers: int = 1,
) -> RelaxationSeries | list[RelaxationSeries]:
    """Average the step observable over ``n_configs`` independent configurations.

    Configuration c uses stream (master_seed, c); any worker count gives the
    same bits (see :func:`average_series`).  ``spec`` may be a tuple of sweep
    cells' specs: the result is then a list of their series, each the same
    bits as the cell's own run, and cells that share their draws
    (:func:`sweep.draw_groups`) are simulated together, on one set of draws.
    """
    specs = (spec,) if isinstance(spec, ModelSpec) else tuple(spec)
    for s in specs:
        s.validate()
    if len(specs) == 1:
        groups = [[0]]
    else:
        from .sweep import draw_groups

        groups = draw_groups(specs, n)
    series = [None] * len(specs)
    for group in groups:
        cells = tuple(specs[k] for k in group)
        runs = average_series(
            _block_series,
            (cells, n, t_max, master_seed),
            t_max,
            n_configs,
            workers,
            [cell.digest() for cell in cells],
            n_agents=n,
            master_seed=master_seed,
        )
        for k, run in zip(group, runs):
            series[k] = run
    return series[0] if isinstance(spec, ModelSpec) else series


def _tail_slice(series: RelaxationSeries, tail_fraction: float) -> np.ndarray:
    if not 0.0 < tail_fraction <= 0.5:
        raise InvalidParameter(f"tail_fraction={tail_fraction} outside (0, 0.5]")
    if len(series) < 10:
        raise InsufficientData(f"series has {len(series)} samples, need >= 10")
    n_tail = max(1, int(round(len(series) * tail_fraction)))
    return series.x_mean[-n_tail:]


def equilibrium_window_stats(
    series: RelaxationSeries, tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> tuple[float, float]:
    """Plateau mean and its standard error (tail std / sqrt(tail length))."""
    tail = _tail_slice(series, tail_fraction)
    mean = float(tail.mean())
    if tail.size < 2:
        return mean, 0.0
    return mean, float(tail.std(ddof=1) / np.sqrt(tail.size))


def write_series_csv(series: RelaxationSeries, path: str | Path, extra: dict | None = None) -> None:
    """Write ``t,x_mean`` rows with a self-describing comment header.

    Output bytes are deterministic for a given series (floats via repr), so
    identical runs produce identical files.
    """
    lines = [
        "# kinex relaxation series; t in time steps, x_mean in money units per agent",
        f"# spec={series.spec} seed={series.master_seed}"
        f" n={series.n_agents} n_configs={series.n_configs}",
    ]
    if extra:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in extra.items()))
    lines.append("t,x_mean")
    for t, x in zip(series.t.tolist(), series.x_mean.tolist()):
        lines.append(f"{t},{x!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series_csv(path: str | Path) -> RelaxationSeries:
    """Read a series written by :func:`write_series_csv`."""
    meta: dict[str, str] = {}
    ts: list[int] = []
    xs: list[float] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    k, _, v = token.partition("=")
                    meta.setdefault(k, v)
            continue
        if line.startswith("t,"):
            continue
        t_str, _, x_str = line.partition(",")
        ts.append(int(t_str))
        xs.append(float(x_str))
    return RelaxationSeries(
        t=np.asarray(ts, dtype=np.int64),
        x_mean=np.asarray(xs),
        n_configs=int(meta.get("n_configs", 0) or 0),
        n_agents=int(meta.get("n", 0) or 0),
        master_seed=int(meta.get("seed", 0) or 0),
        spec=meta.get("spec") or "na",
    )
