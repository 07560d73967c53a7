"""The EnsembleBlock kernel against run_time_step, the per-configuration time step.

Stepping R economies together must reproduce run_time_step bit for bit, per
step and in the final wealth, for every rule, pairing, split mode and initial
condition; run_time_step in turn must reproduce the scalar exchange_* rules.
"""

import _posixsubprocess
import itertools
import os
import sys
import threading
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
from kinex import exchange, kernel
from kinex.distribution import run_equilibrium
from kinex.block import EnsembleBlock
from kinex.exchange import (
    INITS,
    LATTICE_2D,
    PAIRINGS,
    RULES,
    _draw_pairs,
)
from kinex import block as block_module, distribution, relaxation
from kinex.relaxation import run_relaxation
from kinex.rrn import run_rrn_relaxation
from kinex.errors import InvalidParameter, TopologyMismatch
from kinex.streams import map_stream_blocks

BLOCK_SIZES = (1, 2, 63, 64, 100)
SAVING_RULES = ("pure_gambling", "fixed_saving", "distributed_saving")


@pytest.fixture(scope="module", autouse=True)
def draws_match_the_generator():
    """Every block loads the kernel, which runs the draw check; load it once
    first, so that a failed build or broken draws fail each test here at once
    instead of inside every Hypothesis example."""
    kernel.library()


def _per_config(spec, n, steps, seed, streams):
    """Oracle: (per-step |dw| sums, final wealth) per stream via run_time_step."""
    traces, finals = [], []
    for c in streams:
        rng = RngStream(seed, c)
        ens = init_ensemble(spec, n, rng)
        traces.append([run_time_step(ens, spec, rng) for _ in range(steps)])
        finals.append(ens.wealth)
    return np.array(traces), np.concatenate(finals)


def _block_changes(block, steps: int):
    """Step ``block`` ``steps`` times, yielding after each step every row's
    sum_i |w_i(after) - w_i(before)|, the value run_time_step returns: the
    per-step numpy reference for EnsembleBlock.run."""
    before = np.empty_like(block.wealth)
    for _ in range(steps):
        np.copyto(before, block.wealth)
        block.step()
        np.subtract(block.wealth, before, out=before)
        np.abs(before, out=before)
        yield before.reshape(block.rows, block.n_agents).sum(axis=1)


def _block_of(spec, n, seed, streams):
    return EnsembleBlock(spec, n, seed, streams.start, streams.stop)


def _block(spec, n, steps, seed, streams):
    """(per-step traces, final wealth) of the block of ``spec``, one spec or
    sweep cells, on ``streams``, a range."""
    block = _block_of(spec, n, seed, streams)
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
def test_block_of_cells_matches_per_config_bit_for_bit(
    rule, pairing, redraw, init, seed, size, side, streams, cells, lam_windows, eps1_window, steps
):
    # Cells share their draws and differ in split, saving fraction or window,
    # and total wealth.
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
    got_traces, got_final = _block(specs, n, steps, seed, range(3, 3 + streams))
    for k, spec in enumerate(specs):
        want_traces, want_final = _per_config(spec, n, steps, seed, range(3, 3 + streams))
        assert got_traces[k * streams : (k + 1) * streams].tobytes() == want_traces.tobytes()
        assert got_final[k * streams * n : (k + 1) * streams * n].tobytes() == want_final.tobytes()


@pytest.mark.parametrize("pairing", PAIRINGS)
@pytest.mark.parametrize("redraw", [True, False])
def test_block_matches_per_config_at_a_window_one_ulp_below_one(pairing, redraw):
    # Half of the window's raw draws round up to 1.0, which the scalar rule
    # refuses; both paths must run on the propensities below 1.
    spec = ModelSpec(
        rule="distributed_saving",
        pairing=pairing,
        lattice_side=3 if pairing == LATTICE_2D else None,
        eps_fixed=None if redraw else 0.5,
        lambda_window=(0.9999999999999999, 1.0),
    )
    n = 9 if pairing == LATTICE_2D else 12
    want_traces, want_final = _per_config(spec, n, 4, 8, range(5))
    got_traces, got_final = _block(spec, n, 4, 8, range(5))
    assert got_traces.tobytes() == want_traces.tobytes()
    assert got_final.tobytes() == want_final.tobytes()


def test_cells_keep_splits_that_differ_only_in_the_sign_of_zero():
    # eps = -0.0 leaves new_i = -0.0 where eps = 0.0 leaves 0.0, which the
    # observable cannot see, so the final wealth must tell the cells apart.
    specs = tuple(ModelSpec(rule="pure_gambling", eps_fixed=e) for e in (0.0, -0.0, 0.0))
    _, got_final = _block(specs, 10, 3, 4, range(2))
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
    with pytest.raises(InvalidParameter, match="a block's cells must make the same draws"):
        EnsembleBlock(specs, 16, 1, 0, 2)


@pytest.mark.parametrize("start,stop", [(3, 3), (5, 3), (-1, 2)], ids=["empty", "reversed", "negative"])
def test_block_refuses_a_stream_range_that_holds_no_stream(monkeypatch, start, stop):
    def no_stream(*args):
        raise AssertionError("the block made a stream")

    monkeypatch.setattr(block_module, "seed_words", no_stream)
    with pytest.raises(InvalidParameter) as refused:
        EnsembleBlock(ModelSpec(), 10, 0, start, stop)
    assert str(refused.value) == f"stream range start={start}, stop={stop} needs 0 <= start < stop"


@pytest.mark.parametrize(
    "case,error,message",
    [
        ("lattice_side", TopologyMismatch, "lattice side 4 squared != n=9"),
    ],
)
def test_block_refuses_economies_its_kernel_cannot_step(monkeypatch, case, error, message):
    # The kernel reads the lattice's neighbour table through a raw pointer, so
    # a side that does not square to n is refused (by the economies' init)
    # before the block could ever call the kernel.
    def no_call(*args):
        raise AssertionError("the block called the kernel")

    monkeypatch.setattr(block_module, "library", lambda: SimpleNamespace(kx_step=no_call, kx_run=no_call))
    spec = ModelSpec(rule="distributed_saving", eps_fixed=0.5, pairing=LATTICE_2D, lattice_side=4)
    with pytest.raises(error) as refused:
        EnsembleBlock(spec, 9, 1, 0, 3)
    assert str(refused.value) == message


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
    block = EnsembleBlock(spec, n, 8, 0, 24)
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
    want_traces, want_final = _per_config(spec, 10, 40, 2, range(24))
    got_traces, got_final = _block(spec, 10, 40, 2, range(24))
    assert got_final.min() >= 0.0
    assert got_traces.tobytes() == want_traces.tobytes()
    assert got_final.tobytes() == want_final.tobytes()


def test_block_partners_are_distinct_and_lattice_neighbours(monkeypatch):
    # The block steps each economy bit for bit as run_time_step does (above),
    # and each keeps its own total (the conservation test), so its pairs are
    # run_time_step's.  There, a rule that leaves both wealths alone keeps each
    # wealth equal to its agent's index, so the rule's calls name the pairs.
    side = 4
    n = side * side
    spec = ModelSpec(pairing=LATTICE_2D, lattice_side=side, eps_fixed=0.5)
    pairs = []
    monkeypatch.setattr(
        exchange, "exchange_pure_gambling", lambda w_i, w_j, eps: pairs.append((w_i, w_j)) or (w_i, w_j)
    )
    for c in range(3):
        rng = RngStream(3, c)
        ens = init_ensemble(spec, n, rng)
        ens.wealth = np.arange(n, dtype=float)
        run_time_step(ens, spec, rng)
    ii, jj = np.array(pairs, dtype=np.int64).T
    assert len(ii) == 3 * n
    ri, ci = np.divmod(ii, side)
    rj, cj = np.divmod(jj, side)
    dist = np.minimum(np.abs(ri - rj), side - np.abs(ri - rj)) + np.minimum(
        np.abs(ci - cj), side - np.abs(ci - cj)
    )
    assert np.all(dist == 1)


@pytest.mark.parametrize("rule", RULES)
def test_time_step_replays_the_scalar_rules(rule):
    """run_time_step applies the scalar exchange_* functions to its draws in slot order."""
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


def _span(start, stop):
    return start, stop


@pytest.fixture
def pools(monkeypatch):
    """The number of threads each fan-out starts, one entry per fan-out that
    starts any.  The threads are the fan-out's own; this only counts them."""
    started, targets = [], []

    class RecordingThread(threading.Thread):
        def __init__(self, *, target):
            if not targets or targets[-1] is not target:  # one fan-out's threads share it
                targets.append(target)
                started.append(0)
            started[-1] += 1
            super().__init__(target=target)

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


@pytest.mark.parametrize(
    "n_streams,workers,size",
    [
        (130, 1, 130),
        (130, 2, 65),
        (130, 4, 33),  # shares of 33: three blocks of 33 and one of 31
        (60, 2, 30),  # dist-lattice-n1024's 2 x 30
        (500, 4, 125),
        (2000, 2, 1000),
        (10, 2, 5),
        (3000, 1, 2048),  # one worker: capped at BATCH_MAX_ROWS streams
    ],
)
def test_fan_out_gives_each_worker_one_block(pools, n_streams, workers, size):
    blocks = map_stream_blocks(_span, n_streams, workers)
    assert blocks == [(lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]


@pytest.mark.parametrize(
    "n_streams,workers,cells,size",
    [
        (10, 2, 3, 5),  # lambda-family-n1000's 2 x 5 streams of 3 cells
        (60, 2, 3, 30),
        (500, 2, 3, 250),  # the lambda-family preset at 2 workers
        (3000, 1, 3, 682),  # one worker: capped at BATCH_MAX_ROWS // 3 streams
        (10000, 1, 5, 409),  # the full-scale eps-sweep
        (3000, 2, 2, 1024),  # a worker's share of 1500 streams is two blocks
        (5, 2, 4096, 1),  # more cells than the cap's rows: one stream a block
    ],
)
def test_fan_out_counts_the_rows_of_every_cell(pools, n_streams, workers, cells, size):
    blocks = map_stream_blocks(_span, n_streams, workers, cells)
    assert blocks == [(lo, min(lo + size, n_streams)) for lo in range(0, n_streams, size)]


@pytest.mark.parametrize(
    "n_streams,workers,cells",
    list(itertools.product((1, 7, 60, 130, 1000, 5000), (1, 2, 3, 4, 8), (1, 3, 5, 700))),
)
def test_fan_out_blocks_cover_the_streams_one_per_worker(pools, n_streams, workers, cells):
    blocks = map_stream_blocks(_span, n_streams, workers, cells)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_streams
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))  # contiguous, in order
    cap = max(1, 2048 // cells)
    share = -(-n_streams // workers)
    assert all(0 < hi - lo <= min(cap, share) for lo, hi in blocks)
    assert all(size <= workers for size in pools)
    if cells * share <= 2048:
        # one block per worker's share, so no more blocks than workers: all
        # but the last hold the whole share, and W blocks whenever W divides C
        assert len(blocks) <= workers
        assert all(hi - lo == share for lo, hi in blocks[:-1])
        if n_streams % workers == 0:
            assert len(blocks) == workers


@pytest.mark.parametrize(
    "n_streams,workers,threads",
    [(2, 8, [2]), (10, 8, [5]), (130, 2, [2]), (1, 8, [])],
)
def test_fan_out_starts_no_more_threads_than_blocks(pools, n_streams, workers, threads):
    blocks = map_stream_blocks(_span, n_streams, workers)
    assert blocks[0][0] == 0 and blocks[-1][1] == n_streams
    assert pools == threads


@pytest.mark.parametrize("workers", [2, 4])
def test_fan_out_forks_nothing(monkeypatch, workers):
    # The blocks run on the pool's threads; no process is forked or spawned,
    # neither for a stub block nor for a whole run.
    def refuse(*args, **kwargs):
        raise AssertionError("the fan-out started a process")

    spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
    one = run_relaxation(spec, 12, 10, 8, master_seed=5, workers=1)
    for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp"):
        monkeypatch.setattr(os, name, refuse)
    monkeypatch.setattr(_posixsubprocess, "fork_exec", refuse)
    ran_on = set()

    def span(start, stop):
        ran_on.add(threading.get_ident())
        return _span(start, stop)

    size = 8 // workers
    assert map_stream_blocks(span, 8, workers) == [(lo, lo + size) for lo in range(0, 8, size)]
    assert threading.main_thread().ident not in ran_on
    many = run_relaxation(spec, 12, 10, 8, master_seed=5, workers=workers)
    assert one.x_mean.tobytes() == many.x_mean.tobytes()


def test_fan_out_hands_the_next_block_to_the_thread_that_is_free(pools):
    # Four blocks of 2 streams on 2 threads: whichever thread takes the first
    # block holds it until the other thread has run the other three, so the
    # blocks must go to threads as they free up, and come back in stream order.
    release, done, ran_on = threading.Event(), [], {}

    def block(start, stop):
        ran_on[start] = threading.get_ident()
        if start == 0:
            assert release.wait(10), "the blocks after the first waited for its thread"
        else:
            done.append(start)
            if len(done) == 3:
                release.set()
        return start, stop

    assert map_stream_blocks(block, 8, 2, cells=1024) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert pools == [2]
    assert len({ran_on[2], ran_on[4], ran_on[6]}) == 1 and ran_on[0] != ran_on[2]


def test_fan_out_runs_every_block_once_under_contention():
    # More threads than cores, switching every microsecond: 2048 blocks of 2
    # streams on 8 threads, each block run once and its result in its place.
    ran = []

    def block(start, stop):
        ran.append(start)
        return start, stop

    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(map_stream_blocks(block, 4096, 8, cells=1024)))
        runner.start()
        runner.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [[(lo, lo + 2) for lo in range(0, 4096, 2)]]
    assert sorted(ran) == list(range(0, 4096, 2))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fan_out_raises_a_block_s_exception_unchanged(workers):
    raised = InvalidParameter("stream 5 failed")

    def block(start, stop):
        if start <= 5 < stop:
            raise raised
        return start, stop

    with pytest.raises(InvalidParameter) as caught:
        map_stream_blocks(block, 8, workers)
    assert caught.value is raised


def test_fan_out_raises_the_first_failed_block_in_stream_order():
    # Two blocks on two threads: the second fails first, and the first, held
    # until then, fails after it; the first block's exception is the one raised.
    errors = {0: InvalidParameter("stream 0 failed"), 4: InvalidParameter("stream 4 failed")}
    second_failing = threading.Event()

    def block(start, stop):
        if start == 0:
            assert second_failing.wait(10), "the second block never ran"
        else:
            second_failing.set()
        raise errors[start]

    with pytest.raises(InvalidParameter) as caught:
        map_stream_blocks(block, 8, 2)
    assert caught.value is errors[0]


@pytest.mark.parametrize("n_streams", [0, -3])
def test_fan_out_refuses_no_streams(n_streams):
    def block(start, stop):
        raise AssertionError("a block ran")

    with pytest.raises(InvalidParameter, match=f"n_configs={n_streams} must be >= 1"):
        map_stream_blocks(block, n_streams, 2)


# Each run at (t_max, n_configs) on 2 workers; dist steps t_max times.
RUNS = {
    "relax": lambda t_max, n_configs: run_relaxation(ModelSpec(), 10, t_max, n_configs, 0, 2),
    "rrn": lambda t_max, n_configs: run_rrn_relaxation(8, (0.0, 1.0), t_max, n_configs, 0, 2),
    "dist": lambda t_max, n_configs: run_equilibrium(ModelSpec(), 10, t_max, 0, n_configs, 0, 2),
}


@pytest.mark.parametrize(
    "run,t_max,n_configs,error",
    [
        ("relax", 10, 0, "n_configs=0 must be >= 1"),
        ("relax", 1, 4, "t_max=1 must be >= 2"),
        ("rrn", 10, 0, "n_configs=0 must be >= 1"),
        ("rrn", 1, 4, "t_max=1 must be >= 2"),
        ("dist", 10, 0, "n_configs=0 must be >= 1"),
    ],
)
def test_run_sizes_are_refused_before_any_block_runs(monkeypatch, run, t_max, n_configs, error):
    blocks = []

    def recording(block, *args, **kwargs):
        def recorded(start, stop):
            blocks.append((start, stop))
            return block(start, stop)

        return map_stream_blocks(recorded, *args, **kwargs)

    for module in (relaxation, distribution):
        monkeypatch.setattr(module, "map_stream_blocks", recording)
    RUNS[run](10, 4)  # the recorder sees a run of valid size
    assert sorted(blocks) == [(0, 2), (2, 4)]
    blocks.clear()
    with pytest.raises(InvalidParameter, match=error):
        RUNS[run](t_max, n_configs)
    assert blocks == []


def test_blocks_stepped_on_two_threads_match_blocks_stepped_in_turn():
    # Two blocks whose kernel calls overlap in time, each on its own thread,
    # must give the bytes each gives alone.
    cases = [
        (ModelSpec(rule="pure_gambling", pairing=LATTICE_2D, lattice_side=16), 256, 3),
        (ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5), 300, 4),
    ]
    steps = 200

    def run(spec, n, seed, barrier=None):
        block = EnsembleBlock(spec, n, seed, 0, 16)
        if barrier is not None:
            barrier.wait(timeout=60)
        traces = np.array([changes.copy() for changes in _block_changes(block, steps)])
        return traces.tobytes(), block.wealth.tobytes()

    in_turn = [run(*case) for case in cases]
    barrier = threading.Barrier(len(cases))
    together = [None] * len(cases)

    def on_thread(k):
        together[k] = run(*cases[k], barrier)

    threads = [threading.Thread(target=on_thread, args=(k,)) for k in range(len(cases))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert together == in_turn


def test_more_threads_than_cores_switching_often_give_the_same_bytes():
    # Eight worker threads, each a block of two streams, with the interpreter
    # switching threads every microsecond: the shared, already-loaded kernel
    # and the stream-order reduction must still give the 1-worker bytes.
    spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
    one = run_relaxation(spec, 50, 40, 16, master_seed=3, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = run_relaxation(spec, 50, 40, 16, master_seed=3, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert one.x_mean.tobytes() == many.x_mean.tobytes()


# C = 130 streams: one block of 130 at 1 worker; at 2 workers blocks of 65 and
# 65; at 4 workers blocks of 33, 33, 33 and 31.
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
    # Every block returns its economies' propensities, drawn or constant, and
    # the pool joins them in stream order whatever the worker count.
    n = 16
    one = run_equilibrium(spec, n, 6, 4, 130, master_seed=9, workers=1)
    assert one.saving.tobytes() == np.concatenate(
        [init_ensemble(spec, n, RngStream(9, c)).saving for c in range(130)]
    ).tobytes()
    for workers in (2, 4):
        many = run_equilibrium(spec, n, 6, 4, 130, master_seed=9, workers=workers)
        for field in ("wealth", "saving", "wealth_time_avg"):
            assert getattr(one, field).tobytes() == getattr(many, field).tobytes()


@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("rule", ["pure_gambling", "fixed_saving", "general"])
def test_block_saving_is_each_cell_s_constant_where_the_rule_draws_none(rule, cells):
    # Every economy carries its agents' propensities: the cell's lambda_fixed
    # under fixed saving, else 0.0, whatever lambda_fixed the spec holds.
    spec = ModelSpec(rule=rule, lambda_fixed=0.3, eps1_window=(-0.5, 1.5))
    specs = (spec, replace(spec, lambda_fixed=0.7), replace(spec, lambda_fixed=0.1))[:cells]
    n, streams = 9, 4
    block = EnsembleBlock(specs, n, 5, 0, streams)
    constants = [s.lambda_fixed if rule == "fixed_saving" else 0.0 for s in specs]
    assert block.saving.dtype == np.float64
    assert block.saving.shape == (block.rows * n,)
    assert block.saving.tobytes() == np.repeat(constants, streams * n).tobytes()


@pytest.mark.parametrize(
    "spec,constant",
    [(ModelSpec(rule="pure_gambling", lambda_fixed=0.6), 0.0), (ModelSpec(rule="fixed_saving", lambda_fixed=0.6), 0.6)],
    ids=["pure_gambling", "fixed_saving"],
)
def test_equilibrium_saving_is_the_rule_s_constant(spec, constant):
    n, n_configs = 9, 7
    got = run_equilibrium(spec, n, 2, 1, n_configs, master_seed=3, workers=2)
    assert got.saving.tobytes() == np.full(n * n_configs, constant).tobytes()


# Runs whose blocks hold fewer than 24 rows: C = 1, 2 and 5 configurations at
# 1 worker, and C = 10 at 4 workers (blocks of 3, 3, 3 and 1).
SMALL_RUNS = [(1, 1), (2, 1), (5, 1), (10, 4)]
SMALL_SPECS = [
    ModelSpec(
        rule=rule,
        pairing=pairing,
        lattice_side=3,
        lambda_fixed=0.4,
        lambda_window=(0.1, 0.9),
        eps1_window=(-0.5, 1.5),
        init="uniform_random",
    )
    for rule, pairing in itertools.product(RULES, PAIRINGS)
]
SMALL_IDS = [f"{s.rule}-{s.pairing}" for s in SMALL_SPECS]


@pytest.mark.parametrize("configs,workers", SMALL_RUNS)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_IDS)
def test_small_relaxation_runs_match_the_time_step(spec, configs, workers):
    n, t_max = 9, 12
    acc = np.zeros(t_max)  # the stream-order sum of the per-configuration traces
    for c in range(configs):
        rng = RngStream(6, c)
        ens = init_ensemble(spec, n, rng)
        acc += np.array([run_time_step(ens, spec, rng) / n for _ in range(t_max)])
    got = run_relaxation(spec, n, t_max, configs, master_seed=6, workers=workers)
    assert got.x_mean.tobytes() == (acc / configs).tobytes()


@pytest.mark.parametrize("configs,workers", SMALL_RUNS)
@pytest.mark.parametrize("spec", SMALL_SPECS, ids=SMALL_IDS)
def test_small_equilibrium_runs_match_the_time_step(spec, configs, workers):
    n, equil_steps, sample_steps = 9, 5, 4
    finals, savings, averages = [], [], []
    for c in range(configs):
        rng = RngStream(6, c)
        ens = init_ensemble(spec, n, rng)
        for _ in range(equil_steps):
            run_time_step(ens, spec, rng)
        acc = np.zeros(n)
        for _ in range(sample_steps):
            run_time_step(ens, spec, rng)
            acc += ens.wealth
        finals.append(ens.wealth)
        savings.append(ens.saving)
        averages.append(acc / sample_steps)
    got = run_equilibrium(spec, n, equil_steps, sample_steps, configs, master_seed=6, workers=workers)
    assert got.wealth.tobytes() == np.concatenate(finals).tobytes()
    assert got.saving.tobytes() == np.concatenate(savings).tobytes()
    assert got.wealth_time_avg.tobytes() == np.concatenate(averages).tobytes()


@pytest.mark.parametrize(
    "spec,rows,n",
    [
        (ModelSpec(rule="pure_gambling", pairing=LATTICE_2D, lattice_side=32), 30, 1024),
        (ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5), 100, 100),
    ],
    ids=["lattice_r30_n1024", "distributed_saving_r100_n100"],
)
def test_steady_state_steps_allocate_less_than_one_block_array(spec, rows, n):
    # The kernel draws into the block's own buffers and updates the wealth in
    # place, so a step allocates nothing the size of the block.
    block = EnsembleBlock(spec, n, 17, 0, rows)
    block.step()
    block.step()
    tracemalloc.start()
    try:
        for _ in range(10):
            block.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * n * np.dtype(np.float64).itemsize


ORDER_SIZES = (2, 7, 8, 9, 100, 128, 129, 1000, 1024)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize(
    "pairing,n",
    [("mean_field", n) for n in ORDER_SIZES] + [(LATTICE_2D, n) for n in (9, 100, 1024)],
)
def test_run_traces_are_the_per_step_numpy_sums(rule, pairing, n):
    # run sums each row's |dw| in numpy's pairwise order, so its traces are the
    # bytes that stepping the block and summing with numpy give, at sizes on
    # both sides of the 8-value unroll and of the 128-value block.
    side = round(n**0.5)
    spec = ModelSpec(
        rule=rule,
        pairing=pairing,
        lattice_side=side if pairing == LATTICE_2D else None,
        lambda_fixed=0.3,
        lambda_window=(0.1, 0.9),
        eps1_window=(-0.5, 1.5),
        init="uniform_random",
    )
    steps, streams = 4, range(2, 5)
    reference, ran = (_block_of(spec, n, 7, streams) for _ in range(2))
    want = np.array(list(_block_changes(reference, steps))).T
    got = ran.run(steps)
    assert got.tobytes() == want.tobytes()
    assert ran.wealth.tobytes() == reference.wealth.tobytes()


def test_kernel_row_sum_is_numpy_s():
    # Values over ten decades, so that any other order of the additions
    # rounds differently somewhere.
    lib = kernel.library()
    for n in [*range(1, 301), 2048, 4097]:
        rng = np.random.default_rng(n)
        rows = rng.random((3, n)) * 10.0 ** rng.integers(-5, 5, (3, n))
        got = np.array([lib.kx_pairwise_sum(row.ctypes.data, n) for row in rows])
        assert got.tobytes() == rows.sum(axis=1).tobytes(), n


def test_run_allocates_only_its_traces_and_one_copy_of_the_wealth():
    spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
    rows, n, steps = 100, 100, 50
    block = _block_of(spec, n, 17, range(rows))
    block.run(2)
    tracemalloc.start()
    try:
        xs = block.run(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (rows, steps)
    assert xs.nbytes + block.wealth.nbytes <= peak < xs.nbytes + block.wealth.nbytes + 2048


@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("rule,pairing,init", list(itertools.product(RULES, PAIRINGS, INITS)))
def test_building_a_block_makes_no_seed_sequence_or_generator(monkeypatch, rule, pairing, init, cells):
    # The block seeds its streams in the kernel (kernel.seed_words) and makes
    # its init's draws there too, once a stream for all its cells.  Numpy's
    # seeding and Generator serve the oracle alone, run before they are
    # patched to raise.  The streams straddle 2^32, where a stream's spawn key
    # takes a second word.
    spec = ModelSpec(rule=rule, pairing=pairing, lattice_side=3, init=init, lambda_window=(0.1, 0.9),
                     eps1_window=(-0.5, 1.5))
    specs = (spec, replace(spec, lambda_window=(0.5, 1.0), lambda_fixed=0.7, init_total=3.0),
             replace(spec, lambda_window=(0.0, 0.2), lambda_fixed=0.2, init_total=20.0))[:cells]
    n, steps, streams = 9, 5, range(2**32 - 2, 2**32 + 2)
    want = [_per_config(s, n, steps, 11, streams) for s in specs]
    kernel.library()  # loaded, and its checks run, before the patches

    def refuse(*args, **kwargs):
        raise AssertionError("the block made a SeedSequence or Generator")

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    traces, final = _block(specs, n, steps, 11, streams)
    assert traces.tobytes() == np.concatenate([t for t, _ in want]).tobytes()
    assert final.tobytes() == np.concatenate([f for _, f in want]).tobytes()
