"""Raw-word draws against numpy's Generator, byte for byte.

RawReader and BlockDraws must return what ``Generator.integers``, ``random``
and ``uniform`` return for the same calls on the same stream, and leave the
stream where the Generator would leave it, a pending 32-bit half included.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinex import rawdraws
from kinex.errors import DrawMismatch
from kinex.rawdraws import BlockDraws, RawReader, replay
from kinex.streams import RngStream

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


@pytest.mark.parametrize("n", [2, 3, 7, 8, 99, 100])
@pytest.mark.parametrize("seed", [0, 5])
def test_reader_matches_generator_on_kernel_spans(n, seed):
    # Odd sizes leave a half pending, and random() between integer draws must
    # neither use nor clear it.
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
    reader = RawReader(g.bit_generator)
    assert_same_draws(replay(reader, plan), replay(oracle, plan))
    reader.close()
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
    reader = RawReader(g.bit_generator)
    assert_same_draws(replay(reader, plan), replay(oracle, plan))
    reader.close()
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("drawn", [0, 1, 4, 12])
def test_reader_reads_words_already_drawn_first(drawn):
    plan = (("integers", 0, REJECTING[1], 15), ("random", 4), ("integers", 0, 10, 3))
    g, oracle = RngStream(9, 2).gen, RngStream(9, 2).gen
    oracle.integers(0, 10, 1)  # both streams start with a half pending
    g.integers(0, 10, 1)
    reader = RawReader(g.bit_generator, g.bit_generator.random_raw(drawn))
    assert_same_draws(replay(reader, plan), replay(oracle, plan))
    reader.close()
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize(
    "plan",
    [
        (("integers", 0, 101, 101), ("integers", 0, 100, 101), ("random", 101)),
        (("integers", 0, 100, 100), ("integers", 0, 4, 100)),
        (("integers", 0, 2, 2), ("integers", 0, 1, 2), ("uniform", -1.0, 2.0, 2)),
        (("integers", 0, REJECTING[0], 5), ("integers", 0, REJECTING[1], 7), ("random", 3)),
        (("integers", 3, REJECTING[1], 17), ("integers", 0, 4, 3), ("uniform", 0.5, 0.75, 3)),
    ],
    ids=["odd_n", "lattice", "n2_general", "rejecting", "rejecting_lattice"],
)
def test_block_draws_match_generator_per_row(plan):
    rows, steps = 6, 5
    gens = [RngStream(21, c).gen for c in range(rows)]
    oracles = [RngStream(21, c).gen for c in range(rows)]
    block = BlockDraws(gens, plan)
    for _ in range(steps):
        got = block.draw()
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
    readers, reader = [], rawdraws.RawReader

    def counting_reader(*args):
        readers.append(args)
        return reader(*args)

    monkeypatch.setattr(rawdraws, "RawReader", counting_reader)
    block = BlockDraws(gens, plan)
    pending_row_steps = 0
    for _ in range(steps):
        pending_row_steps += block._pending.sum()
        got = block.draw()
        for r, oracle in enumerate(oracles):
            assert_same_draws([a[r] for a in got], replay(oracle, plan))
    for g, oracle in zip(gens, oracles):
        assert_continues_alike(g, oracle)
    # pending rows are decoded with the rest; only rejecting ones replay
    assert 0 < len(readers) < pending_row_steps


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
    monkeypatch.setattr(rawdraws, "_unit_doubles", lambda words: (words >> 12) * 2.0**-52)
    with pytest.raises(DrawMismatch):
        rawdraws.check_raw_draws.__wrapped__()


def test_raw_draws_are_not_imported_at_cli_start():
    code = "import sys, kinex.cli; print('kinex.rawdraws' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(rawdraws.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
