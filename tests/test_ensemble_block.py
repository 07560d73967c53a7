"""The batched EnsembleBlock kernel against the per-configuration time step.

Stepping R economies together must reproduce run_time_step bit for bit, per
step and in the final wealth, for every rule, pairing, split mode and initial
condition; run_time_step in turn must reproduce the scalar exchange_* rules.
"""

import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinex import (
    ModelSpec,
    RngStream,
    exchange_distributed_saving,
    exchange_fixed_saving,
    exchange_general,
    exchange_pure_gambling,
    init_ensemble,
    run_time_step,
)
from kinex import rawdraws
from kinex.distribution import run_equilibrium
from kinex.block import EnsembleBlock
from kinex.exchange import (
    INITS,
    LATTICE_2D,
    PAIRINGS,
    RULES,
    _draw_pairs,
)
from kinex.relaxation import _block_changes, run_relaxation
from kinex import streams as streams_module
from kinex.errors import InvalidParameter
from kinex.streams import BATCH_MIN_ROWS, map_stream_blocks, replay

BLOCK_SIZES = (1, 2, 63, 64, 100)
SAVING_RULES = ("pure_gambling", "fixed_saving", "distributed_saving")


@pytest.fixture(scope="module", autouse=True)
def draws_match_the_generator():
    """Every block runs the draw check when it is built; run it once first, so
    that broken draws fail each test here at once instead of inside every
    Hypothesis example."""
    rawdraws.check_raw_draws()


def _per_config(spec, n, steps, seed, streams):
    """Oracle: (per-step |dw| sums, final wealth) per stream via run_time_step."""
    traces, finals = [], []
    for c in streams:
        rng = RngStream(seed, c)
        ens = init_ensemble(spec, n, rng)
        traces.append([run_time_step(ens, spec, rng) for _ in range(steps)])
        finals.append(ens.wealth)
    return np.array(traces), np.concatenate(finals)


def _block(spec, n, steps, seed, streams):
    rngs = [RngStream(seed, c) for c in streams]
    block = EnsembleBlock(spec, [init_ensemble(spec, n, rng) for rng in rngs], rngs)
    traces = np.array(list(_block_changes(block, steps))).T
    return traces, block.wealth


unit = st.floats(0.0, 1.0)
window = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(sorted).map(tuple)


@pytest.mark.parametrize(
    "rule,pairing,redraw,init", list(itertools.product(RULES, PAIRINGS, (True, False), INITS))
)
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 16),
    eps=unit,
    lam=st.floats(0.0, 1.0, exclude_max=True),
    lam_window=st.tuples(unit, unit).filter(lambda w: w[0] != w[1]).map(sorted).map(tuple),
    eps1_window=window,
    eps2_window=window,
    total=st.floats(0.5, 1e3),
    steps=st.integers(1, 5),
)
def test_block_matches_per_config_bit_for_bit(
    rule, pairing, redraw, init, seed, size, eps, lam, lam_window, eps1_window, eps2_window,
    total, steps,
):
    side = max(2, round(size**0.5))
    n = side * side if pairing == LATTICE_2D else size
    spec = ModelSpec(
        rule=rule,
        pairing=pairing,
        lattice_side=side if pairing == LATTICE_2D else None,
        eps_fixed=None if redraw else eps,
        lambda_fixed=lam,
        lambda_window=lam_window,
        eps1_window=eps1_window,
        eps2_window=eps2_window,
        init=init,
        init_total=total,
    )
    want_traces, want_final = _per_config(spec, n, steps, seed, range(max(BLOCK_SIZES)))
    for rows in BLOCK_SIZES:
        start = max(BLOCK_SIZES) - rows  # blocks need not start at stream 0
        got_traces, got_final = _block(spec, n, steps, seed, range(start, start + rows))
        assert got_traces.tobytes() == want_traces[start:].tobytes()
        assert got_final.tobytes() == want_final[start * n:].tobytes()


def _cells_block(specs, n, steps, seed, streams):
    """Every cell's economies on ``streams`` in one block, on shared draws."""
    ensembles = []
    for spec in specs:
        rngs = [RngStream(seed, c) for c in streams]
        ensembles += [init_ensemble(spec, n, rng) for rng in rngs]
    block = EnsembleBlock(specs, ensembles, rngs)
    traces = np.array(list(_block_changes(block, steps))).T
    return traces, block.wealth, block


@pytest.mark.parametrize(
    "rule,pairing,redraw,init", list(itertools.product(RULES, PAIRINGS, (True, False), INITS))
)
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 16),
    side=st.sampled_from([2, 3]),
    streams=st.integers(1, 5),
    cells=st.lists(
        st.tuples(unit, st.floats(0.0, 1.0, exclude_max=True), st.floats(0.5, 1e3)),
        min_size=1,
        max_size=3,
    ),
    lam_windows=st.lists(
        st.tuples(unit, unit).filter(lambda w: w[0] != w[1]).map(sorted).map(tuple),
        min_size=3,
        max_size=3,
    ),
    eps1_window=window,
    steps=st.integers(1, 4),
)
def test_block_in_runs_matches_per_config_bit_for_bit(
    rule, pairing, redraw, init, seed, size, side, streams, cells, lam_windows, eps1_window, steps
):
    # Run stepping forced on at any size; cells share their draws and differ in
    # split, saving fraction or window, and total wealth.
    n = side * side if pairing == LATTICE_2D else size
    specs = tuple(
        ModelSpec(
            rule=rule,
            pairing=pairing,
            lattice_side=side if pairing == LATTICE_2D else None,
            eps_fixed=None if redraw else eps,
            lambda_fixed=lam,
            lambda_window=lam_window,
            eps1_window=eps1_window,
            init=init,
            init_total=total,
        )
        for (eps, lam, total), lam_window in zip(cells, lam_windows)
    )
    with pytest.MonkeyPatch.context() as m:
        m.setattr(streams_module, "RUN_AGENTS", 0)
        got_traces, got_final, block = _cells_block(specs, n, steps, seed, range(3, 3 + streams))
    assert block._by_runs
    for k, spec in enumerate(specs):
        want_traces, want_final = _per_config(spec, n, steps, seed, range(3, 3 + streams))
        assert got_traces[k * streams : (k + 1) * streams].tobytes() == want_traces.tobytes()
        assert got_final[k * streams * n : (k + 1) * streams * n].tobytes() == want_final.tobytes()


@pytest.mark.parametrize("runs", [False, True], ids=["slots", "runs"])
def test_cells_keep_splits_that_differ_only_in_the_sign_of_zero(runs):
    # eps = -0.0 leaves new_i = -0.0 where eps = 0.0 leaves 0.0, which the
    # observable cannot see, so the final wealth must tell the cells apart.
    specs = tuple(ModelSpec(rule="pure_gambling", eps_fixed=e) for e in (0.0, -0.0, 0.0))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(streams_module, "RUN_AGENTS", 0 if runs else 10**9)
        _, got_final, block = _cells_block(specs, 10, 3, 4, range(2))
    assert block._by_runs == runs
    for k, spec in enumerate(specs):
        want_final = _per_config(spec, 10, 3, 4, range(2))[1]
        assert got_final[k * 20 : (k + 1) * 20].tobytes() == want_final.tobytes()


@pytest.mark.parametrize(
    "other",
    [
        {"pairing": LATTICE_2D, "lattice_side": 4},
        {"init": "uniform_random"},
        {"rule": "fixed_saving"},
        {"eps_fixed": None},
    ],
    ids=["pairing", "init", "rule", "eps_drawn"],
)
def test_block_refuses_cells_whose_draws_differ(other):
    spec = ModelSpec(rule="distributed_saving", eps_fixed=0.5)
    specs = (spec, replace(spec, **other))
    rngs = [RngStream(1, c) for c in range(2)]
    ensembles = [init_ensemble(s, 16, RngStream(1, c)) for s in specs for c in range(2)]
    with pytest.raises(InvalidParameter):
        EnsembleBlock(specs, ensembles, rngs)


@pytest.mark.parametrize("window", [(0.0, -0.0), (-0.0, -0.0), (-0.5, -0.0)])
def test_general_rule_takes_windows_bounded_by_negative_zero(window):
    # (0.0, -0.0) passes validation (lo <= hi) but numpy's uniform refuses its
    # high - low of -0.0; the draws must be those of the window with +0.0.
    spec = ModelSpec(rule="general", eps1_window=window, eps2_window=(0.0, -0.0))
    n, rows, steps = 6, 3, 4
    want_traces, want_final = _per_config(spec, n, steps, 5, range(rows))
    got_traces, got_final = _block(spec, n, steps, 5, range(rows))
    assert got_traces.tobytes() == want_traces.tobytes()
    assert got_final.tobytes() == want_final.tobytes()
    plus_zero = ModelSpec(rule="general", eps1_window=(window[0], 0.0), eps2_window=(0.0, 0.0))
    assert _per_config(plus_zero, n, steps, 5, range(rows))[1].tobytes() == want_final.tobytes()


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("pairing", PAIRINGS)
def test_block_conserves_each_economy_and_keeps_saving_rules_nonneg(rule, pairing):
    side = 5
    n = side * side
    spec = ModelSpec(
        rule=rule,
        pairing=pairing,
        lattice_side=side,
        lambda_fixed=0.6,
        lambda_window=(0.0, 1.0),
        eps1_window=(-0.5, 1.5),
        init="uniform_random",
    )
    rngs = [RngStream(8, c) for c in range(BATCH_MIN_ROWS)]
    block = EnsembleBlock(spec, [init_ensemble(spec, n, rng) for rng in rngs], rngs)
    totals = block.wealth.reshape(-1, n).sum(axis=1)
    for _ in range(100):
        block.step()
        if rule in SAVING_RULES:
            assert block.wealth.min() >= 0.0
    np.testing.assert_allclose(block.wealth.reshape(-1, n).sum(axis=1), totals, rtol=1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(rule="fixed_saving", lambda_fixed=0.1, eps_fixed=1.0, init="delta_one_agent"),
        ModelSpec(
            rule="distributed_saving",
            lambda_window=(0.0, 0.2),
            eps_fixed=1.0,
            init="delta_one_agent",
        ),
        ModelSpec(rule="pure_gambling", eps_fixed=-0.0, init="delta_one_agent"),
    ],
)
def test_block_clamps_overshoot_like_per_config(spec):
    # At eps = 1 and small lam, with most agents at zero wealth, lam*w_i +
    # eps*(1-lam)*total often rounds above the pair total, so the new_j < 0 clamp
    # fires.  eps = -0.0 on zero-wealth pairs gives new_i = -0.0 = total, a tie
    # the clamp must leave alone.
    want_traces, want_final = _per_config(spec, 10, 40, 2, range(BATCH_MIN_ROWS))
    got_traces, got_final = _block(spec, 10, 40, 2, range(BATCH_MIN_ROWS))
    assert got_final.min() >= 0.0
    assert got_traces.tobytes() == want_traces.tobytes()
    assert got_final.tobytes() == want_final.tobytes()


def test_block_partners_are_distinct_and_lattice_neighbours():
    side = 4
    spec = ModelSpec(pairing=LATTICE_2D, lattice_side=side)
    rngs = [RngStream(3, c) for c in range(3)]
    block = EnsembleBlock(spec, [init_ensemble(spec, side * side, rng) for rng in rngs], rngs)
    block.step()
    ii, jj = np.split(block._pairs, 2, axis=1)
    row_i, row_j = ii // (side * side), jj // (side * side)
    assert np.array_equal(row_i, row_j)  # partners never cross economies
    ri, ci = np.divmod(ii % (side * side), side)
    rj, cj = np.divmod(jj % (side * side), side)
    dist = np.minimum(np.abs(ri - rj), side - np.abs(ri - rj)) + np.minimum(
        np.abs(ci - cj), side - np.abs(ci - cj)
    )
    assert np.all(dist == 1)


@pytest.mark.parametrize("rule", RULES)
def test_time_step_replays_the_scalar_rules(rule):
    """The scalar exchange_* functions are the oracle for the inlined loop."""
    spec = ModelSpec(rule=rule, lambda_fixed=0.3, eps1_window=(-0.5, 1.5), init="uniform_random")
    n = 30
    rng, oracle = RngStream(4, 0), RngStream(4, 0)
    ens, replay = init_ensemble(spec, n, rng), init_ensemble(spec, n, oracle)
    for _ in range(3):
        run_time_step(ens, spec, rng)
        g = oracle.gen
        ii, jj = _draw_pairs(spec, n, g)
        if rule == "general":
            e1, e2 = g.uniform(*spec.eps1_window, size=n), g.uniform(*spec.eps2_window, size=n)
        else:
            ee = g.random(n)
        w, lam = replay.wealth, replay.saving
        for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
            if rule == "pure_gambling":
                w[i], w[j] = exchange_pure_gambling(w[i], w[j], ee[k])
            elif rule == "fixed_saving":
                w[i], w[j] = exchange_fixed_saving(w[i], w[j], spec.lambda_fixed, ee[k])
            elif rule == "distributed_saving":
                w[i], w[j] = exchange_distributed_saving(w[i], w[j], lam[i], lam[j], ee[k])
            else:
                w[i], w[j] = exchange_general(w[i], w[j], e1[k], e2[k])
        assert ens.wealth.tobytes() == replay.wealth.tobytes()


def _span(args):
    return args[-2], args[-1]


@pytest.mark.parametrize(
    "n_streams,workers,size",
    [
        (130, 1, 130),
        (130, 2, 64),
        (130, 4, 33),  # a worker's share of 33 is batched whole
        (60, 2, 30),
        (500, 4, 64),
        (2000, 2, 250),
        (10, 2, 1),
    ],
)
def test_fan_out_blocks_reach_the_batched_path(n_streams, workers, size):
    blocks = map_stream_blocks(_span, (), n_streams, workers)
    assert blocks == [(lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]


@pytest.mark.parametrize(
    "n_streams,workers,cells,agents,size",
    [
        (10, 2, 3, 1000, 5),  # 15 rows a worker, stepped in runs: 1000 >= 48 * 5
        (10, 2, 3, 100, 1),  # 15 rows slot by slot would not pay
        (10, 2, 1, 1000, 1),  # 5 rows do not pay in runs either
        (60, 2, 3, 100, 22),  # 90 rows a worker: blocks of ceil(64 / 3) streams
        (130, 2, 1, 0, 64),
    ],
)
def test_fan_out_counts_the_rows_of_every_cell(n_streams, workers, cells, agents, size):
    blocks = map_stream_blocks(_span, (), n_streams, workers, cells, agents)
    assert blocks == [(lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]


# C = 130 streams: one batched block of 130 at 1 worker; at 2 workers batched
# blocks of 64 and 64 and a 2-row block stepped per configuration; at 4 workers
# batched blocks of 33, 33, 33 and 31.
@pytest.mark.parametrize("workers", [2, 4])
def test_relaxation_is_the_same_at_any_worker_count(workers):
    spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
    one = run_relaxation(spec, 12, 10, 130, master_seed=5, workers=1)
    many = run_relaxation(spec, 12, 10, 130, master_seed=5, workers=workers)
    assert one.x_mean.tobytes() == many.x_mean.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(rule="distributed_saving", lambda_window=(0.2, 0.9)),
        ModelSpec(rule="pure_gambling", pairing=LATTICE_2D, lattice_side=4),
        ModelSpec(rule="fixed_saving", lambda_fixed=0.4, init="uniform_random"),
        ModelSpec(rule="general", eps1_window=(-0.5, 1.5), eps2_window=(0.0, 0.5)),
    ],
    ids=["distributed_saving", "pure_gambling_lattice", "fixed_saving", "general"],
)
def test_equilibrium_is_the_same_at_any_worker_count(spec):
    # The saving of rules without drawn propensities is built by the caller,
    # not returned by the workers; it must come out the same all the same.
    n = 16
    one = run_equilibrium(spec, n, 6, 4, 130, master_seed=9, workers=1)
    assert one.saving.tobytes() == np.concatenate(
        [init_ensemble(spec, n, RngStream(9, c)).saving for c in range(130)]
    ).tobytes()
    for workers in (2, 4):
        many = run_equilibrium(spec, n, 6, 4, 130, master_seed=9, workers=workers)
        for field in ("wealth", "saving", "wealth_time_avg"):
            assert getattr(one, field).tobytes() == getattr(many, field).tobytes()


@pytest.mark.parametrize(
    "spec,rows,n",
    [
        (ModelSpec(rule="pure_gambling", pairing=LATTICE_2D, lattice_side=32), 30, 1024),
        (ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5), 100, 100),
    ],
    ids=["lattice_r30_n1024", "distributed_saving_r100_n100"],
)
def test_steady_state_steps_allocate_less_than_one_block_array(spec, rows, n):
    # The draws are decoded into the block's own buffers and the partners mapped
    # in place, so a step allocates only row-sized and scratch temporaries.
    # numpy's ufuncs buffer strided operands in chunks of np.getbufsize()
    # elements whatever the array size (3 x 64 KB at the default 8192, more than
    # the 80 KB of one 100 x 100 array); the steps run with 1024-element
    # chunks, so that what is left is what the block itself allocates.
    rngs = [RngStream(17, c) for c in range(rows)]
    block = EnsembleBlock(spec, [init_ensemble(spec, n, rng) for rng in rngs], rngs)
    block.step()
    block.step()
    bufsize = np.setbufsize(1024)
    tracemalloc.start()
    try:
        for _ in range(10):
            block.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < rows * n * np.dtype(np.float64).itemsize


class _RawOnly:
    """A stream whose generator offers only its bit generator, no Generator calls."""

    def __init__(self, rng):
        self.gen = SimpleNamespace(bit_generator=rng.gen.bit_generator)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(rule="general", eps1_window=(-0.5, 1.5)),
        ModelSpec(rule="fixed_saving", lambda_fixed=0.3, pairing=LATTICE_2D, lattice_side=3),
    ],
    ids=["general", "fixed_saving_lattice"],
)
def test_block_draws_from_raw_words_only(spec):
    n, rows = 9, 5
    want_traces, want_final = _per_config(spec, n, 6, 3, range(rows))
    rngs = [RngStream(3, c) for c in range(rows)]
    ensembles = [init_ensemble(spec, n, rng) for rng in rngs]
    block = EnsembleBlock(spec, ensembles, [_RawOnly(rng) for rng in rngs])
    traces = np.array(list(_block_changes(block, 6))).T
    assert traces.tobytes() == want_traces.tobytes()
    assert block.wealth.tobytes() == want_final.tobytes()


@pytest.mark.parametrize("rule,pairing", [("general", "mean_field"), ("pure_gambling", LATTICE_2D)])
def test_block_rows_forced_through_the_generator_replay(monkeypatch, rule, pairing):
    # Every row counts as rejecting, so every row-step is rewound and replayed
    # through the Generator; at n = 9 both plans have a span (9, or 8 and 9)
    # that the check applies to.
    spec = ModelSpec(rule=rule, pairing=pairing, lattice_side=3, eps1_window=(-0.5, 1.5))
    n, rows, steps = 9, 7, 8
    want_traces, want_final = _per_config(spec, n, steps, 11, range(rows))
    rngs = [RngStream(11, c) for c in range(rows)]
    block = EnsembleBlock(spec, [init_ensemble(spec, n, rng) for rng in rngs], rngs)
    replays = []

    def counting_replay(source, plan):
        replays.append(source)
        return replay(source, plan)

    monkeypatch.setattr(rawdraws, "_rejects", lambda m, threshold: np.ones(len(m), dtype=bool))
    monkeypatch.setattr(rawdraws, "replay", counting_replay)
    traces = np.array(list(_block_changes(block, steps))).T
    assert len(replays) == rows * steps
    assert traces.tobytes() == want_traces.tobytes()
    assert block.wealth.tobytes() == want_final.tobytes()


def test_block_row_carries_a_pending_half_across_steps(monkeypatch):
    # One integer draw before the block leaves stream 2 with a 32-bit half
    # pending; each step then reads 2n halves, so the half stays pending from
    # step to step.  The row is decoded with the others, never replayed.
    spec = ModelSpec(rule="distributed_saving", eps_fixed=None)
    n, rows, steps = 10, 4, 6
    traces, finals = [], []
    for c in range(rows):
        rng = RngStream(13, c)
        ens = init_ensemble(spec, n, rng)
        if c == 2:
            rng.gen.integers(0, 7, size=1)
        traces.append([run_time_step(ens, spec, rng) for _ in range(steps)])
        finals.append(ens.wealth)
    rngs = [RngStream(13, c) for c in range(rows)]
    ensembles = [init_ensemble(spec, n, rng) for rng in rngs]
    rngs[2].gen.integers(0, 7, size=1)
    block = EnsembleBlock(spec, ensembles, rngs)
    monkeypatch.setattr(rawdraws, "replay", None)  # a call would fail
    got = []
    for changes in _block_changes(block, steps):
        got.append(changes)
        assert block._draws._pending.tolist() == [False, False, True, False]
    assert np.array(got).T.tobytes() == np.array(traces).tobytes()
    assert block.wealth.tobytes() == np.concatenate(finals).tobytes()
