"""Sweep cells simulated together on shared draws, against each cell's own run."""

from dataclasses import replace

import pytest

from kinex import relaxation
from kinex.block import draw_signature
from kinex.exchange import LATTICE_2D, ModelSpec
from kinex.relaxation import run_relaxation
from kinex.streams import map_stream_blocks

LAMBDA_FAMILY = tuple(
    ModelSpec(rule="distributed_saving", lambda_window=w, eps_fixed=0.5)
    for w in ((0.0, 1.0), (0.5, 1.0), (0.7, 1.0))
)
EPS_SWEEP = tuple(
    ModelSpec(rule="distributed_saving", lambda_window=(0.2, 0.9), eps_fixed=e, init="uniform_random")
    for e in (0.45, 0.5, 0.55, 1.0, 0.0)
)
DRAWN_EPS = tuple(
    ModelSpec(rule="distributed_saving", lambda_window=w, init="delta_one_agent", init_total=t)
    for w, t in (((0.0, 1.0), 50.0), ((0.3, 0.6), 20.0))
)
SWEEPS = {"lambda_family": LAMBDA_FAMILY, "eps_sweep": EPS_SWEEP, "drawn_eps": DRAWN_EPS}

# (n, configurations): small economies on 130 streams, whose cells share one
# block at 1 worker and one block a worker at 2 and 4; large economies on 16
# streams, in blocks of 16, 8 and 4 streams.
SIZES = {"n12": (12, 130), "n1100": (1100, 16)}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("sweep", SWEEPS)
def test_merged_cells_equal_their_own_runs(sweep, size, workers):
    n, configs = SIZES[size]
    specs = SWEEPS[sweep]
    assert len({draw_signature(s, n) for s in specs}) == 1
    merged = run_relaxation(specs, n, 10, configs, master_seed=7, workers=workers)
    for spec, series in zip(specs, merged):
        alone = run_relaxation(spec, n, 10, configs, master_seed=7, workers=1)
        assert series.spec == alone.spec == spec.digest()
        assert series.x_mean.tobytes() == alone.x_mean.tobytes()
        assert (series.n_configs, series.n_agents) == (alone.n_configs, alone.n_agents)


@pytest.mark.parametrize(
    "other",
    [
        {"pairing": LATTICE_2D, "lattice_side": 4},
        {"init": "uniform_random"},
        {"rule": "pure_gambling"},
        {"eps_fixed": None},
    ],
    ids=["pairing", "init", "rule", "eps_drawn"],
)
def test_cells_whose_draws_differ_run_apart(other):
    base = ModelSpec(rule="distributed_saving", eps_fixed=0.5)
    specs = (base, replace(base, **other), replace(base, lambda_window=(0.5, 1.0)))
    assert draw_signature(specs[0], 16) != draw_signature(specs[1], 16)
    merged = run_relaxation(specs, 16, 10, 40, master_seed=3, workers=2)
    for spec, series in zip(specs, merged):
        alone = run_relaxation(spec, 16, 10, 40, master_seed=3)
        assert series.x_mean.tobytes() == alone.x_mean.tobytes()


def record_fan_outs(monkeypatch):
    """The stream ranges of every block, one list per fan-out run_relaxation
    makes, in the order a pool's threads ran them."""
    fan_outs = []

    def recording(block, *args, **kwargs):
        fan_outs.append([])

        def recorded(start, stop):
            fan_outs[-1].append((start, stop))
            return block(start, stop)

        return map_stream_blocks(recorded, *args, **kwargs)

    monkeypatch.setattr(relaxation, "map_stream_blocks", recording)
    return fan_outs


def test_one_signature_runs_in_one_fan_out(monkeypatch):
    fan_outs = record_fan_outs(monkeypatch)
    run_relaxation(LAMBDA_FAMILY, 12, 10, 8, master_seed=5, workers=2)
    assert [sorted(f) for f in fan_outs] == [[(0, 4), (4, 8)]]


def test_a_tuple_that_draws_differently_runs_one_fan_out_per_cell(monkeypatch):
    # the first and last cells agree, but the tuple runs each cell as its own run
    base = ModelSpec(rule="distributed_saving", eps_fixed=0.5)
    specs = (base, replace(base, init="uniform_random"), replace(base, lambda_window=(0.5, 1.0)))
    assert len({draw_signature(s, 12) for s in specs}) == 2
    fan_outs = record_fan_outs(monkeypatch)
    run_relaxation(specs, 12, 10, 8, master_seed=5, workers=2)
    assert [sorted(f) for f in fan_outs] == [[(0, 4), (4, 8)]] * 3


def test_signature_follows_n_and_split_values_do_not():
    spec = LAMBDA_FAMILY[0]
    assert draw_signature(spec, 100) != draw_signature(spec, 101)
    assert len({draw_signature(s, 100) for s in LAMBDA_FAMILY + EPS_SWEEP[:1]}) == 2  # init differs
    assert len({draw_signature(s, 100) for s in EPS_SWEEP}) == 1
