"""Raw-word draws against numpy's Generator, byte for byte.

BlockDraws must return what ``Generator.integers``, ``random`` and ``uniform``
return for the same calls on the same stream, and leave the stream where the
Generator would leave it, a pending 32-bit half included, whether a row is
decoded from raw words or rewound and replayed through the Generator.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinex import rawdraws
from kinex.errors import DrawMismatch
from kinex.rawdraws import BlockDraws
from kinex.streams import RngStream, replay

# Spans where about half and a quarter of all 32-bit values are rejected.
REJECTING = (2**31 + 1, 3 * 2**30 + 7)


def assert_same_draws(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def assert_continues_alike(g, oracle):
    """Both streams give the same next values, so pending halves agree too."""
    assert g.integers(0, REJECTING[0], 5).tobytes() == oracle.integers(0, REJECTING[0], 5).tobytes()
    assert g.random(3).tobytes() == oracle.random(3).tobytes()


def rewound_replay(g, words, plan):
    """Draw ``words`` raw words, rewind them as BlockDraws rewinds a row that
    rejected a value, pending half included, and replay ``plan`` through the
    Generator, the one exact reader of rejected values."""
    state = g.bit_generator.state
    half = state["uinteger"] if state["has_uint32"] else None
    g.bit_generator.random_raw(words)
    rawdraws._rewind(g.bit_generator, words, half)
    return replay(np.random.Generator(g.bit_generator), plan)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 99, 100])
@pytest.mark.parametrize("seed", [0, 5])
def test_reader_matches_generator_on_kernel_spans(n, seed):
    # Odd sizes leave a half pending, and random() between integer draws must
    # neither use nor clear it; the first replay leaves the half that the
    # rewinds of the later steps must put back.
    plan = (
        ("integers", 0, n, n),
        ("random", 3),
        ("integers", 0, n - 1, n),
        ("integers", 0, 1, n),
        ("integers", 0, 4, n),
        ("uniform", -0.5, 1.5, n),
        ("integers", 0, n, 1),
    )
    g, oracle = RngStream(seed, n).gen, RngStream(seed, n).gen
    for _ in range(3):
        assert_same_draws(rewound_replay(g, 2 * n + 3, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_generator_where_rejection_is_frequent(seed):
    plan = (
        ("integers", 0, REJECTING[0], 9),
        ("random", 2),
        ("integers", 0, REJECTING[1], 11),
        ("uniform", 2.0, 5.0, 3),
        ("integers", 3, REJECTING[1], 7),
    )
    g, oracle = RngStream(seed, 1).gen, RngStream(seed, 1).gen
    for _ in range(3):
        assert_same_draws(rewound_replay(g, 19, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("drawn", [0, 1, 4, 12])
def test_reader_reads_words_already_drawn_first(drawn):
    # The words a step drew are put back, and the half pending before them.
    plan = (("integers", 0, REJECTING[1], 15), ("random", 4), ("integers", 0, 10, 3))
    g, oracle = RngStream(9, 2).gen, RngStream(9, 2).gen
    oracle.integers(0, 10, 1)  # both streams start with a half pending
    g.integers(0, 10, 1)
    assert_same_draws(rewound_replay(g, drawn, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize(
    "plan",
    [
        (("integers", 0, 101, 101), ("integers", 0, 100, 101), ("random", 101)),
        (("integers", 0, 100, 100), ("integers", 0, 4, 100)),
        (("integers", 0, 2, 2), ("integers", 0, 1, 2), ("uniform", -1.0, 2.0, 2)),
        (("integers", 0, REJECTING[0], 5), ("integers", 0, REJECTING[1], 7), ("random", 3)),
        (("integers", 3, REJECTING[1], 17), ("integers", 0, 4, 3), ("uniform", 0.5, 0.75, 3)),
        (("integers", 5, 5 + REJECTING[0], 9), ("integers", 2, 2 + REJECTING[1], 11), ("uniform", 2.0, 5.0, 3)),
    ],
    ids=["odd_n", "lattice", "n2_general", "rejecting", "rejecting_lattice", "rejecting_low_uniform"],
)
@pytest.mark.parametrize("pending", [(), (1, 4)], ids=["none_pending", "rows_1_4_pending"])
@pytest.mark.parametrize("layout", ["contiguous", "slot_major"])
def test_block_draws_match_generator_per_row(plan, pending, layout):
    # Rows that start with a half pending read it first; where they reject on
    # the first step, the rewind has to put that half back.  The draws are
    # decoded into row-major arrays, or into the transposed slot-major views
    # EnsembleBlock passes, rejected rows' replays included.
    rows, steps = 6, 5
    gens = [RngStream(21, c).gen for c in range(rows)]
    oracles = [RngStream(21, c).gen for c in range(rows)]
    for r in pending:
        gens[r].integers(0, 7, 1)
        oracles[r].integers(0, 7, 1)
    block = BlockDraws(gens, plan)
    got = rawdraws.slot_major(plan, rows)
    if layout == "contiguous":
        got = [np.empty(a.shape, a.dtype) for a in got]
    for _ in range(steps):
        block.draw(got)
        for r, oracle in enumerate(oracles):
            assert_same_draws([a[r] for a in got], replay(oracle, plan))
    for g, oracle in zip(gens, oracles):
        assert_continues_alike(g, oracle)


def test_block_draws_decode_pending_rows_and_replay_only_rejecting_ones(monkeypatch):
    # A span where about 1e-3 of all values are rejected: over 40 steps rows
    # reject now and then, and each odd rejection flips the row's pending half.
    plan = (("integers", 0, 2**31 - 2**21, 101), ("integers", 0, 999, 101), ("random", 50))
    rows, steps = 8, 40
    gens = [RngStream(31, c).gen for c in range(rows)]
    oracles = [RngStream(31, c).gen for c in range(rows)]
    replays = []

    def counting_replay(source, plan):
        replays.append(source)
        return replay(source, plan)

    monkeypatch.setattr(rawdraws, "replay", counting_replay)
    block = BlockDraws(gens, plan)
    got = rawdraws.slot_major(plan, rows)
    pending_row_steps = 0
    for _ in range(steps):
        pending_row_steps += block._pending.sum()
        block.draw(got)
        for r, oracle in enumerate(oracles):
            assert_same_draws([a[r] for a in got], replay(oracle, plan))
    for g, oracle in zip(gens, oracles):
        assert_continues_alike(g, oracle)
    # pending rows are decoded with the rest; only rejecting ones replay
    assert 0 < len(replays) < pending_row_steps
    assert all(isinstance(g, np.random.Generator) for g in replays)


def test_lemire_products_are_uint64_under_any_promotion_rules():
    halves = np.array([0, 7, 2**32 - 1], dtype=np.uint32)
    m = rawdraws._products(halves, REJECTING[1])
    assert m.dtype == np.uint64
    assert m.tolist() == [h * REJECTING[1] for h in halves.tolist()]


def test_block_draws_refuse_a_plan_they_cannot_decode():
    gens = [RngStream(1, 0).gen]
    with pytest.raises(ValueError):
        BlockDraws(gens, (("random", 3), ("integers", 0, 10, 2)))
    with pytest.raises(ValueError):
        BlockDraws(gens, (("integers", 0, 10, 3),))


def test_draw_check_passes_here_and_catches_a_mismatch(monkeypatch):
    rawdraws.check_raw_draws.__wrapped__()
    rewind = rawdraws._rewind
    # _rewind runs only for rows that rejected a value, so the two broken
    # rewinds can be caught only there; the second differs from the real one
    # only for a row that held a half before the step.
    mutations = [
        ("_unit_doubles", lambda words, out: np.multiply(words >> 12, 2.0**-52, out=out)),
        ("_rewind", lambda bg, words, half: rewind(bg, words - 1, half)),
        ("_rewind", lambda bg, words, half: rewind(bg, words, None)),
    ]
    for name, broken in mutations:
        with monkeypatch.context() as m:
            m.setattr(rawdraws, name, broken)
            with pytest.raises(DrawMismatch):
                rawdraws.check_raw_draws.__wrapped__()


def test_batched_path_modules_are_not_imported_at_cli_start():
    # Every start compiles what it imports where no bytecode cache is written;
    # these modules serve only batched blocks and sweeps, which import them.
    lazy = ["kinex.block", "kinex.rawdraws", "kinex.runs", "kinex.sweep"]
    code = f"import sys, kinex.cli; print([m for m in {lazy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(rawdraws.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
