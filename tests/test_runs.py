"""Greedy runs of interaction slots that touch no agent twice in any stream,
and the run-major order in which a block lays out each run's agents."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex.runs import run_bounds, run_rows


@st.composite
def step_pairs(draw, n=st.integers(2, 40)):
    """One step's (n, 2 * streams) slot-major pairs: per slot the first agent
    on every stream, then a partner that differs from it."""
    n = draw(n)
    streams = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, n, (n, streams))
    second = rng.integers(0, n - 1, (n, streams))
    second += second >= first
    return np.concatenate([first, second], axis=1), streams


def _agents(pairs, streams, a, b, s):
    return pairs[a:b, [s, streams + s]].ravel().tolist()


@settings(max_examples=200, deadline=None)
@given(step=step_pairs())
def test_runs_are_conflict_free_and_greedy(step):
    pairs, streams = step
    n = len(pairs)
    bounds = run_bounds(pairs, streams)
    assert bounds[0] == 0 and bounds[-1] == n
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    for a, b in zip(bounds, bounds[1:]):
        for s in range(streams):
            agents = _agents(pairs, streams, a, b, s)
            assert len(set(agents)) == len(agents)  # no agent twice within a run
        if b < n:  # the next slot touches an agent of this run on some stream
            assert any(
                set(_agents(pairs, streams, a, b, s)) & set(_agents(pairs, streams, b, b + 1, s))
                for s in range(streams)
            )


@given(step=step_pairs(n=st.just(2)))
def test_two_agents_give_one_slot_runs(step):
    pairs, streams = step
    assert run_bounds(pairs, streams) == [0, 1, 2]


@given(step=step_pairs())
def test_run_rows_lay_each_run_out_as_its_agents_i_then_j(step):
    pairs, streams = step
    n = len(pairs)
    bounds = run_bounds(pairs, streams)
    rows = run_rows(bounds)
    assert sorted(rows.tolist()) == list(range(2 * n))
    laid = np.empty((2 * n, streams), dtype=pairs.dtype)
    laid[rows] = pairs.reshape(2 * n, streams)
    for a, b in zip(bounds, bounds[1:]):
        assert laid[2 * a : a + b].tobytes() == pairs[a:b, :streams].tobytes()
        assert laid[a + b : 2 * b].tobytes() == pairs[a:b, streams:].tobytes()
