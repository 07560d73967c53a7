"""Sweep cells simulated together on shared draws, against each cell's own run."""

from dataclasses import replace

import pytest

from kinex.exchange import LATTICE_2D, ModelSpec
from kinex.relaxation import run_relaxation
from kinex.sweep import draw_groups, draw_signature

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

# (n, configurations): 12 agents on 130 streams take blocks stepped slot by slot
# at 1, 2 and 4 workers; 1100 agents on 16 streams step their blocks in runs.
SIZES = {"slots": (12, 130), "runs": (1100, 16)}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("sweep", SWEEPS)
def test_merged_cells_equal_their_own_runs(sweep, size, workers):
    n, configs = SIZES[size]
    specs = SWEEPS[sweep]
    assert len(draw_groups(specs, n)) == 1
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
    assert draw_groups(specs, 16) == [[0, 2], [1]]
    merged = run_relaxation(specs, 16, 10, 40, master_seed=3, workers=2)
    for spec, series in zip(specs, merged):
        alone = run_relaxation(spec, 16, 10, 40, master_seed=3)
        assert series.x_mean.tobytes() == alone.x_mean.tobytes()


def test_signature_follows_n_and_split_values_do_not():
    spec = LAMBDA_FAMILY[0]
    assert draw_signature(spec, 100) != draw_signature(spec, 101)
    assert len({draw_signature(s, 100) for s in LAMBDA_FAMILY + EPS_SWEEP[:1]}) == 2  # init differs
    assert len({draw_signature(s, 100) for s in EPS_SWEEP}) == 1
