"""The relaxation observable and configuration-averaged relaxation series.

The observable for one time step is the mean absolute per-agent wealth change
between the step's boundary snapshots.  A relaxation run simulates many
independent initial configurations (one RNG stream each) and averages the
observable per step; the averaged series decays toward an equilibrium plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidParameter
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


def _cells_block(specs, n: int, master_seed: int, start: int, stop: int):
    """One block.EnsembleBlock of every cell's configurations on streams [start, stop),
    bit for bit as run_time_step steps each configuration of each cell.  ``specs``
    are sweep cells that share their draws, or one spec."""
    from .block import EnsembleBlock  # not at import: the CLI's start need not compile it

    rngs = [RngStream(master_seed, c) for c in range(start, stop)]
    fresh = [rng.gen.bit_generator.state for rng in rngs]
    ensembles = []
    for spec in specs:
        # every cell's init makes the same draws from the same fresh stream, so
        # the streams left by the last cell's stand where every cell's would
        for rng, state in zip(rngs, fresh):
            rng.gen.bit_generator.state = state
            ensembles.append(init_ensemble(spec, n, rng))
    return EnsembleBlock(specs, ensembles, rngs)


def stream_mean(blocks: list[np.ndarray], n_configs: int) -> np.ndarray:
    """The mean over configurations of the blocks' traces, each block shaped
    (its configurations, ...) as :func:`streams.map_stream_blocks` returns them.

    The traces are summed one configuration at a time in stream order, then
    divided by ``n_configs``, so any worker count, and so any block size,
    yields the same bits.
    """
    acc = np.zeros(blocks[0].shape[1:])
    for traces in blocks:
        for xs in traces:
            acc += xs
    return acc / n_configs


def cell_series(
    traces, labels: list[str], n_agents: int, t_max: int, n_configs: int, master_seed: int, workers: int
) -> list[RelaxationSeries]:
    """The series of sweep cells ``labels`` from one fan-out of ``traces(start,
    stop)``, their observable on streams [start, stop), shaped (configurations,
    cells, t_max), averaged in stream order (see :func:`stream_mean`)."""
    if t_max < 2:
        raise InvalidParameter(f"t_max={t_max} must be >= 2")
    means = stream_mean(map_stream_blocks(traces, n_configs, workers, len(labels)), n_configs)
    return [RelaxationSeries(np.arange(1, t_max + 1), x_mean, n_configs, n_agents, master_seed, label)
            for label, x_mean in zip(labels, means)]


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
    same bits (see :func:`stream_mean`).  ``spec`` may be a tuple of sweep
    cells' specs: the result is then a list of their series, each the same
    bits as the cell's own run.  Cells that share their draws
    (:func:`block.draw_signature`) are simulated together, on one set of
    draws; a tuple whose cells draw differently runs each cell as its own run.
    """
    specs = (spec,) if isinstance(spec, ModelSpec) else tuple(spec)
    for s in specs:
        s.validate()
    from .block import draw_signature  # not at import: the CLI's start need not compile it

    if len({draw_signature(s, n) for s in specs}) > 1:
        return [run_relaxation(s, n, t_max, n_configs, master_seed, workers) for s in specs]

    def traces(start: int, stop: int) -> np.ndarray:
        """Observable traces of streams [start, stop), shape (configurations, cells, t_max)."""
        xs = _cells_block(specs, n, master_seed, start, stop).run(t_max)
        xs /= n
        return xs.reshape(len(specs), stop - start, t_max).swapaxes(0, 1)

    labels = [s.digest() for s in specs]
    series = cell_series(traces, labels, n, t_max, n_configs, master_seed, workers)
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
    """Plateau mean and its standard error (tail std / sqrt(tail length)).

    A diverging run's tail gives sem nan when it holds a sample that is not
    finite, and sem inf when its spread overflows a double.  A tail of one
    sample has no spread, so its sem is nan too.
    """
    tail = _tail_slice(series, tail_fraction)
    with np.errstate(over="ignore"):
        mean = float(tail.mean())
        if tail.size < 2 or not np.isfinite(tail).all():
            return mean, float("nan")
        return mean, float(tail.std(ddof=1) / np.sqrt(tail.size))
