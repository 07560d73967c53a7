"""The compiled step kernel: its draws against numpy's Generator and its fresh
stream states against numpy's SeedSequence, byte for byte, its load checks,
the committed values they hold it to against the installed numpy, and how it
is built and loaded.

The kernel's draws must be what ``Generator.integers``, ``random`` and
``uniform`` return for the same calls on the same stream, and leave the stream
where the Generator would leave it, a pending 32-bit half included.
"""

import ctypes
import itertools
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex import kernel
from kinex.errors import DrawMismatch, InvalidParameter, KernelBuildError, SeedMismatch, SweepMismatch
from kinex.distribution import run_equilibrium
from kinex.exchange import ModelSpec
from kinex.relaxation import run_relaxation
from kinex.rrn import LATTICE_INITS, _relax, build_lattice, run_rrn_relaxation
from kinex.streams import RngStream, replay

# Spans where about half and a quarter of all 32-bit values are rejected.
REJECTING = (2**31 + 1, 3 * 2**30 + 7)


def pcg64_words(bit_generator) -> list[int]:
    """A PCG64 bit generator's state as the kernel's six words: state low and
    high, increment low and high, has_uint32 and uinteger."""
    state = bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise InvalidParameter(f"the kernel steps PCG64 streams, not {state['bit_generator']}")
    s, inc = state["state"]["state"], state["state"]["inc"]
    return [s % 2**64, s >> 64, inc % 2**64, inc >> 64, state["has_uint32"], state["uinteger"]]


def generator_draws(lib, bit_generator, plan: tuple) -> list[np.ndarray]:
    """The kernel's draws for ``plan`` on the state of ``bit_generator``, a
    PCG64, which is left where the kernel left the stream."""
    words = np.array(pcg64_words(bit_generator), dtype=np.uint64)
    out = kernel.kernel_draws(lib, words, plan)
    s_lo, s_hi, inc_lo, inc_hi, has_uint32, uinteger = map(int, words)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return out


@pytest.fixture
def fresh_library():
    """An empty library cache before and after the test."""
    kernel.library.cache_clear()
    yield
    kernel.library.cache_clear()


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
def test_kernel_draws_match_generator_on_kernel_spans(n, seed):
    # Odd sizes leave a half pending, which random() between integer draws
    # must neither use nor clear; a span of 1 draws nothing.
    plan = (
        ("integers", 0, n, n),
        ("random", 3),
        ("integers", 0, n - 1, n),
        ("integers", 0, 1, n),
        ("integers", 0, 4, n),
        ("uniform", -0.5, 1.5, n),
        ("integers", 0, n, 1),
    )
    lib = kernel.library()
    g, oracle = RngStream(seed, n).gen, RngStream(seed, n).gen
    for _ in range(3):
        assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize(
    "plan",
    [
        (("integers", 0, REJECTING[0], 9), ("random", 2), ("integers", 0, REJECTING[1], 11),
         ("uniform", 2.0, 5.0, 3), ("integers", 3, REJECTING[1], 7)),
        (("integers", 3, REJECTING[1], 17), ("integers", 0, 4, 3), ("uniform", 0.5, 0.75, 3)),
        (("integers", 0, 101, 101), ("integers", 0, 100, 101), ("random", 101)),
        (("integers", 0, 100, 100), ("integers", 0, 4, 100)),
        (("integers", 0, 2, 2), ("integers", 0, 1, 2), ("uniform", -1.0, 2.0, 2)),
        (("integers", 5, 5 + REJECTING[0], 9), ("integers", 2, 2 + REJECTING[1], 11),
         ("uniform", 2.0, 5.0, 3)),
    ],
    ids=["rejecting", "rejecting_lattice", "odd_n", "lattice", "n2_general", "rejecting_low_uniform"],
)
@pytest.mark.parametrize("pending", [(), (1, 4)], ids=["none_pending", "rows_1_4_pending"])
def test_kernel_draws_match_generator_per_stream(plan, pending):
    # Streams that start with a half pending read it first.
    lib = kernel.library()
    gens = [RngStream(21, c).gen for c in range(6)]
    oracles = [RngStream(21, c).gen for c in range(6)]
    for r in pending:
        gens[r].integers(0, 7, 1)
        oracles[r].integers(0, 7, 1)
    for _ in range(5):
        for g, oracle in zip(gens, oracles):
            assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    for g, oracle in zip(gens, oracles):
        assert_continues_alike(g, oracle)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_draws_match_generator_where_rejection_is_frequent(seed):
    plan = (
        ("integers", 0, REJECTING[0], 9),
        ("random", 2),
        ("integers", 0, REJECTING[1], 11),
        ("uniform", 2.0, 5.0, 3),
        ("integers", 3, REJECTING[1], 7),
    )
    lib = kernel.library()
    g, oracle = RngStream(seed, 1).gen, RngStream(seed, 1).gen
    for _ in range(3):
        assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("drawn", [0, 1, 4, 13])
def test_kernel_reads_what_the_generator_left_first(drawn):
    # The Generator's own draws before the kernel's leave a half pending after
    # an odd count, and the kernel's first 32-bit value must be that half.
    plan = (("integers", 0, REJECTING[1], 15), ("random", 4), ("integers", 0, 10, 3))
    lib = kernel.library()
    g, oracle = RngStream(9, 2).gen, RngStream(9, 2).gen
    g.integers(0, 10, drawn)
    oracle.integers(0, 10, drawn)
    assert g.bit_generator.state["has_uint32"] == drawn % 2
    assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("span", [1, 2, 3, 2**16 + 1, 2**31, 2**31 + 1, 2**32 - 1])
def test_kernel_integers_match_generator_at_the_edges_of_the_32_bit_path(span):
    # Lemire's product of a 32-bit value and a span just under 2**32 needs all
    # 64 bits; a span of 1 draws nothing, so the stream stays where it was.
    plan = (("integers", 0, span, 33), ("integers", 7, 7 + span, 8))
    lib = kernel.library()
    g, oracle = RngStream(4, span % 1000).gen, RngStream(4, span % 1000).gen
    for _ in range(3):
        assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert_continues_alike(g, oracle)


# numpy's PCG64 (O'Neill's XSL-RR 128/64): state <- state * MULTIPLIER + inc
# mod 2**128, then the output rotates by the new state's top 6 bits.
MULTIPLIER = 0x2360ED051FC65DA4_4385DF649FCCF645
WRAP = 2**128
INC = 0xDA3E39CB94B95BDB_5851F42D4C957F2D  # odd, high bit set


def _generator_at(state, inc=INC, has_uint32=0, uinteger=0):
    """A Generator on a PCG64 whose state is set by hand."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return np.random.Generator(bit_generator)


def _state_before(after, inc=INC):
    """The state that one step takes to ``after``."""
    return (after - inc) * pow(MULTIPLIER, -1, WRAP) % WRAP


@pytest.mark.parametrize(
    "state,inc,has_uint32,uinteger",
    [
        (_state_before(0x0123456789ABCDEF_FEDCBA9876543210), INC, 0, 0),  # rotation 0
        (_state_before(0xFD23456789ABCDEF_FEDCBA9876543210), INC, 0, 0),  # rotation 63
        (WRAP - 1, INC, 0, 0),
        (_state_before(INC - 1), INC, 0, 0),  # state * MULTIPLIER is 2**128 - 1: + inc wraps
        (0, 2**127 + 1, 0, 0),  # a high-bit increment on a zero state
        (12345, INC, 1, 0xDEADBEEF),  # a half pending on entry
        (_state_before(0x03 << 120, inc=1), 1, 1, 2**32 - 1),  # pending, then rotation 0
    ],
    ids=["rotation_0", "rotation_63", "max_state", "wrap", "high_bit_inc", "pending", "pending_rotation_0"],
)
@pytest.mark.parametrize(
    "plan",
    [
        (("random", 2), ("integers", 0, REJECTING[0], 7), ("uniform", -1.0, 2.0, 3)),
        (("integers", 0, 2**32 - 1, 3), ("random", 1), ("integers", 0, 100, 5)),  # odd: pending on exit
    ],
    ids=["double_first", "integers_first"],
)
def test_kernel_steps_pcg64_as_numpy_does_at_its_edges(state, inc, has_uint32, uinteger, plan):
    lib = kernel.library()
    g, oracle = (_generator_at(state, inc, has_uint32, uinteger) for _ in range(2))
    assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert g.bit_generator.state == oracle.bit_generator.state
    assert_continues_alike(g, oracle)


# Words the kernel draws ahead at a time: a chunk of doubles, or of twice as
# many 32-bit values.
CHUNK = int(re.search(r"KX_CHUNK = (\d+)", kernel.SOURCE.read_text()).group(1))
CHUNK_SIZES = sorted({0, 1, 2, *(c + d for c in (CHUNK, 2 * CHUNK) for d in (-1, 0, 1)), 4 * CHUNK + 1})


def _draws_and_state_match(plan, pending):
    """The kernel's draws for ``plan`` and the whole state it leaves equal the
    Generator's, on a stream with or without a half pending on entry."""
    lib = kernel.library()
    g, oracle = RngStream(13, len(plan)).gen, RngStream(13, len(plan)).gen
    if pending:
        g.integers(0, 7, 1)
        oracle.integers(0, 7, 1)
    assert_same_draws(generator_draws(lib, g.bit_generator, plan), replay(oracle, plan))
    assert g.bit_generator.state == oracle.bit_generator.state
    assert_continues_alike(g, oracle)


@pytest.mark.parametrize("span", [2, 4, 100, 1024, 2**27 + 1, 2**31, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("pending", [False, True], ids=["none_pending", "half_pending"])
def test_kernel_draws_match_generator_at_chunk_edges(span, pending):
    # Sizes about one and two chunks of words, for doubles and for 32-bit
    # values; powers of two map by a shift, and 2**27 + 1 often rewinds a pass.
    # uinteger must hold the last high half, as numpy leaves it, even with no
    # half pending.
    for size in CHUNK_SIZES:
        _draws_and_state_match((("integers", 0, span, size), ("random", size), ("integers", 7, 7 + span, size)),
                               pending)


SPANS = st.one_of(
    st.sampled_from([2, 3, 4, 64, 99, 100, 1024, 2**27 + 1, 2**31, 2**31 + 1, 2**32 - 1]),
    st.integers(1, 2**32 - 1),
)
CALLS = st.one_of(
    st.tuples(st.just("integers"), st.integers(0, 9), SPANS, st.integers(0, 2 * CHUNK + 3)).map(
        lambda c: (c[0], c[1], c[1] + c[2], c[3])),
    st.tuples(st.just("random"), st.integers(0, CHUNK + 3)),
    st.tuples(st.just("uniform"), st.just(-0.5), st.just(1.5), st.integers(0, CHUNK + 3)),
)


@settings(max_examples=60, deadline=None)
@given(plan=st.lists(CALLS, min_size=1, max_size=6).map(tuple), pending=st.booleans())
def test_kernel_draws_match_generator_on_mixed_plans(plan, pending):
    _draws_and_state_match(plan, pending)


def test_kernel_draws_refuse_a_stream_that_is_not_pcg64():
    g = np.random.Generator(np.random.MT19937(5))
    with pytest.raises(InvalidParameter, match="MT19937"):
        generator_draws(kernel.library(), g.bit_generator, (("random", 3),))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**160 - 1),
    start=st.one_of(st.integers(0, 2**33), st.integers(2**32 - 64, 2**32)),
    span=st.integers(1, 64),
)
def test_seed_words_are_numpy_s_fresh_states(seed, start, span):
    got = kernel.seed_words(kernel.library(), seed, start, start + span)
    want = [pcg64_words(RngStream(seed, c).gen.bit_generator) for c in range(start, start + span)]
    assert got.dtype == np.uint64 and got.tolist() == want


def test_seed_words_take_a_numpy_integer_seed_and_refuse_a_negative_one():
    lib = kernel.library()
    assert kernel.seed_words(lib, np.int64(5), 0, 3).tobytes() == kernel.seed_words(lib, 5, 0, 3).tobytes()
    with pytest.raises(InvalidParameter, match="master_seed=-1 must be >= 0"):
        kernel.seed_words(lib, -1, 0, 2)


def _c_definitions() -> dict[str, int]:
    """Every non-static kx_* function defined in _kernel.c: name -> argument count."""
    source = kernel.SOURCE.read_text()
    found = re.findall(r"^(\w[\w ]*?[ *])(kx_\w+)\(([^)]*)\)\s*\{", source, flags=re.M)
    return {name: len(args.split(",")) for kind, name, args in found if not kind.startswith("static")}


def test_every_kernel_function_has_a_ctypes_signature_of_its_arity():
    # Without argtypes ctypes passes a Python int as a C int, which would
    # silently cut every 64-bit size, span and pointer.
    defined = _c_definitions()
    assert "kx_run" in defined and "kx_step" in defined
    declared = {name: len(argtypes) for name, (_, argtypes) in kernel._SIGNATURES.items()}
    assert declared == defined


def _use_source_with(old: str, new: str, tmp_path, monkeypatch) -> None:
    """Make library() build and load a copy of the kernel's source with
    ``old`` replaced by ``new``, into an empty cache."""
    source = kernel.SOURCE.read_text()
    assert old in source
    broken = tmp_path / "_kernel.c"
    broken.write_text(source.replace(old, new))
    monkeypatch.setattr(kernel, "SOURCE", broken)
    monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "cache")


@pytest.mark.parametrize(
    "old,new",
    [
        ("out[k] = (int64_t)(lo >> 32);", "out[k] = (int64_t)(lo >> 32) ^ 1;"),
        ("(words[i] >> 11) * 0x1.0p-53", "(words[i] >> 12) * 0x1.0p-52"),
        ("m = (uint64_t)pcg64_next32(&g) * span;", "m = (uint64_t)(uint32_t)pcg64_next64(&g) * span;"),
        ("0x4385df649fccf645ULL", "0x4385df649fccf647ULL"),
        ("lo = (uint32_t)words[i] * span, hi = (words[i] >> 32) * span",
         "lo = (words[i] >> 32) * span, hi = (uint32_t)words[i] * span"),
        ("32 - __builtin_ctzll(span)", "31 - __builtin_ctzll(span)"),
        ("add[d] = add[d - 1] * PCG64_MULTIPLIER + g->inc;", "add[d] = add[d - 1] * PCG64_MULTIPLIER;"),
        ("g.state = start;", "(void)start;"),
    ],
    ids=["integers_off_by_one_bit", "doubles_on_52_bits", "no_pending_half", "wrong_multiplier",
         "halves_swapped", "shift_off_by_one", "wrong_lookahead_constant", "no_rewind"],
)
def test_library_refuses_a_build_whose_draws_differ(tmp_path, monkeypatch, fresh_library, old, new):
    # Kernels built from broken copies of the source: integers off in their
    # lowest bit, doubles one ulp off for half of all values, 32-bit values
    # that each use up a whole word, so that no half is ever left pending, a
    # PCG64 multiplier off in one bit; whole words mapped high half first, a
    # power-of-two span's shift one bit short, a step four states ahead that
    # adds the increment once too few, and a pass that does not rewind to the
    # value that might be rejected.
    _use_source_with(old, new, tmp_path, monkeypatch)
    with pytest.raises(DrawMismatch):
        kernel.library()
    assert kernel.library.cache_info().currsize == 0


@pytest.mark.parametrize(
    "old,new",
    [
        ("+ g_dn[c] * v_dn[c] + g_h[c] * v[right]", "+ g_h[c] * v[right] + g_dn[c] * v_dn[c]"),
        ("x /= w[c];", "x *= 1.0 / w[c];"),
        ("double sum = 0.0;\n        for (int64_t r = 1; r < L - 1; r++)",
         "double sum = 0.0;\n        for (int64_t r = L - 2; r >= 1; r--)"),
        ("if (src != potential)", "if (0)"),
    ],
    ids=["stencil_terms_reordered", "divide_by_reciprocal", "rows_summed_backwards", "no_copy_back"],
)
def test_library_refuses_a_build_whose_sweep_differs(tmp_path, monkeypatch, fresh_library, old, new):
    # Kernels built from copies of the source that reorder the stencil's
    # terms, divide through a reciprocal (as fast-math may), sum |dV| in
    # another order, or leave the third sweep's result in the second buffer:
    # each passes the draw check and must fail the sweep check.
    _use_source_with(old, new, tmp_path, monkeypatch)
    with pytest.raises(SweepMismatch):
        kernel.library()
    assert kernel.library.cache_info().currsize == 0


@pytest.mark.parametrize(
    "old,new",
    [
        ("#define SS_MULT_A 0x931e8875u", "#define SS_MULT_A 0x931e8877u"),
        ("if (c >> 32)\n            ss_absorb", "if (0)\n            ss_absorb"),
        ("k < n_run; k++)", "k < 4; k++)"),
        ("const u128 init = (u128)seed[0] << 64 | seed[1];", "const u128 init = (u128)seed[1] << 64 | seed[0];"),
    ],
    ids=["hash_constant", "no_second_spawn_word", "no_run_word_past_the_pool", "seed_halves_swapped"],
)
def test_library_refuses_a_build_whose_seeding_differs(tmp_path, monkeypatch, fresh_library, old, new):
    # Kernels built from copies of the source with a hash multiplier off in
    # one bit, a stream index from 2^32 on hashed by its low word alone, a
    # master seed's words past the pool's four left out, and a PCG64 state
    # whose two 64-bit halves are taken the other way round.  Each passes the
    # draw check, whose streams start from committed words, and the seed check
    # runs before the sweep check, whose lattice is drawn on a seeded stream.
    _use_source_with(old, new, tmp_path, monkeypatch)
    with pytest.raises(SeedMismatch):
        kernel.library()
    assert kernel.library.cache_info().currsize == 0


def test_seed_check_passes_here_and_catches_a_mismatch(monkeypatch):
    # The check holds the kernel to committed words, and the oracle test holds
    # those to the installed numpy; each patch stands for a numpy that seeds
    # RngStream's stream otherwise: a SeedSequence with a pool of 8 words, one
    # that keeps a stream index's low word alone, one that keeps a master
    # seed's low 64 bits alone, and a default_rng whose stream is not a PCG64.
    lib = kernel.library()
    kernel.check_seeds(lib)
    seed_sequence = np.random.SeedSequence
    mutations = {
        "SeedSequence": [
            lambda entropy, spawn_key=(): seed_sequence(entropy, spawn_key=spawn_key, pool_size=8),
            lambda entropy, spawn_key=(): seed_sequence(entropy, spawn_key=[k % 2**32 for k in spawn_key]),
            lambda entropy, spawn_key=(): seed_sequence(entropy % 2**64, spawn_key=spawn_key),
        ],
        "default_rng": [lambda seq: np.random.Generator(np.random.MT19937(seq))],
    }
    for name, patches in mutations.items():
        for patched in patches:
            with monkeypatch.context() as m:
                m.setattr(np.random, name, patched)
                with pytest.raises(AssertionError, match="_CHECK_SEED_WORDS"):
                    assert_committed_check_values_are_numpy_s()
    # and a committed word that is not the kernel's stops the load
    words = [list(w) for w in kernel._CHECK_SEED_WORDS]
    words[-1][1] ^= 1
    monkeypatch.setattr(kernel, "_CHECK_SEED_WORDS", words)
    with pytest.raises(SeedMismatch):
        kernel.check_seeds(lib)


def test_sweep_check_holds_the_kernel_to_the_lattice_s_numpy_stencil(monkeypatch):
    # The check's oracle is kernel.neighbor_sum, which also gives every lattice its
    # weight sums and residuals: the same stencil with its right and left terms
    # added the other way round rounds otherwise, and the check must see it.
    def swapped(cond_h, cond_v, potential):
        v, g_h = potential[1:-1], cond_h[1:-1]
        return (cond_v[:-1] * potential[:-2] + cond_v[1:] * potential[2:]
                + np.roll(g_h, 1, axis=1) * np.roll(v, 1, axis=1) + g_h * np.roll(v, -1, axis=1))

    lib = kernel.library()
    kernel.check_sweep(lib)
    monkeypatch.setattr(kernel, "neighbor_sum", swapped)
    with pytest.raises(SweepMismatch):
        kernel.check_sweep(lib)


CLONES = '__attribute__((target_clones("avx2", "default")))'


def _has_avx2() -> bool:
    cpuinfo = Path("/proc/cpuinfo")
    flags = re.search(r"^flags\s*:(.*)$", cpuinfo.read_text(), re.M) if cpuinfo.is_file() else None
    return flags is not None and "avx2" in flags.group(1).split()


@pytest.mark.parametrize("variant", ["default", "avx2"])
def test_each_clone_of_the_sweep_gives_the_library_s_bits(tmp_path, variant):
    # kx_relax is built twice into one library, and the loader picks a clone
    # by the CPU.  Build each clone alone, from the source without the
    # attribute, and hold it to the library byte for byte.
    if variant == "avx2" and not (platform.machine() in ("x86_64", "AMD64") and _has_avx2()):
        pytest.skip("this host cannot run AVX2 code")
    source = kernel.SOURCE.read_text()
    assert CLONES in source
    plain = tmp_path / "_kernel.c"
    plain.write_text(source.replace(CLONES, ""))
    built = tmp_path / f"{variant}.so"
    flags = kernel.FLAGS + (("-mavx2",) if variant == "avx2" else ())
    subprocess.run(["cc", *flags, "-o", str(built), str(plain)], check=True)
    lib = ctypes.CDLL(str(built))
    lib.kx_relax.restype, lib.kx_relax.argtypes = kernel._SIGNATURES["kx_relax"]
    for L, init, t_max in itertools.product([3, 4, 7, 100], LATTICE_INITS, [1, 2, 3, 400]):
        lat = build_lattice(L, (0.0, 1.0), kernel.seed_words(kernel.library(), 31, L, L + 1)[0], init=init)
        potential, spare, xs = lat.potential.copy(), np.empty((L, L)), np.empty(t_max)
        lib.kx_relax(L, lat.cond_v.ctypes.data, lat.cond_h.ctypes.data, lat.weight_sum.ctypes.data,
                     potential.ctypes.data, spare.ctypes.data, t_max, xs.ctypes.data)
        assert xs.tobytes() == _relax(lat, t_max).tobytes()
        assert potential.tobytes() == lat.potential.tobytes()


@pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump to disassemble with")
def test_the_avx2_clone_of_the_sweep_uses_256_bit_registers():
    # If the stencil's row function were called out of line, the AVX2 clone
    # would hold no ymm instruction and run no faster than the baseline.
    disassembly = subprocess.run(
        ["objdump", "-d", kernel.library()._name], capture_output=True, text=True, check=True
    ).stdout
    clone = re.search(r"<kx_relax\.avx2>:\n(.*?)\n\n", disassembly, re.S)
    if clone is None:
        pytest.skip("the kernel is built without an AVX2 clone on this platform")
    assert re.search(r"vdivpd .*%ymm", clone.group(1))


def numpy_check_values(draw=replay) -> dict:
    """The values the kernel's load checks hold it to, as the installed numpy
    makes them: every constant they compare with, by its name in
    :mod:`kinex.kernel`.  The draws are made by ``draw(generator, plan)``,
    on RngStream's Generators, as check_draws makes them through the kernel."""
    seed, L = kernel._CHECK_SEED, 13
    streams = [RngStream(s, c).gen for s in kernel._CHECK_SEEDS for c in kernel._CHECK_STREAMS]
    starts = [RngStream(seed, c).gen for c in range(3)]
    assert all(isinstance(g.bit_generator, np.random.PCG64) for g in streams + starts), \
        "RngStream's bit generator is not a PCG64: no _CHECK_SEED_WORDS can be pinned from it"
    draws = []
    for plan in kernel._CHECK_PLANS:
        gens = [RngStream(seed, c).gen for c in range(3)]
        values = draw(gens[1], kernel._CHECK_PENDING)
        for _ in range(3):
            for g in gens:
                values += draw(g, plan)
        for g in gens:
            values += draw(g, kernel._CHECK_CONTINUE)
        final = np.array([pcg64_words(g.bit_generator) for g in gens], dtype=np.uint64)
        draws.append(kernel._digest([*values, final]))
    g = RngStream(seed, 0).gen
    lattice = (g.random((L, L)) + 0.1, g.random((L - 1, L)) + 0.1, g.random((L, L)))
    return {
        "_CHECK_STARTS": tuple(tuple(pcg64_words(g.bit_generator)) for g in starts),
        "_CHECK_DRAWS": tuple(draws),
        "_CHECK_SEED_WORDS": tuple(tuple(pcg64_words(g.bit_generator)) for g in streams),
        "_CHECK_LATTICE": kernel._digest(lattice),
    }


def assert_committed_check_values_are_numpy_s(draw=replay) -> None:
    want = numpy_check_values(draw)
    differ = {name: value for name, value in want.items() if getattr(kernel, name) != value}
    assert not differ, (
        f"numpy {np.__version__} makes other values than kinex/kernel.py commits for its load checks;"
        " if this numpy's streams are to be kinex's, re-pin these there:\n"
        + "\n".join(f"{name} = {value!r}" for name, value in differ.items())
    )


def test_the_committed_check_values_are_the_installed_numpy_s():
    # The load checks compare the kernel with committed values, so a run's
    # bits do not depend on the installed numpy.random; this test holds those
    # values to it, so a numpy that streams otherwise fails here, not in a run.
    assert_committed_check_values_are_numpy_s()


def test_draw_check_passes_here_and_catches_a_mismatch(monkeypatch):
    lib = kernel.library()
    kernel.check_draws(lib)
    # The check holds the kernel to committed digests, and the oracle test
    # holds those to the installed numpy's Generator; each broken one stands
    # for a numpy that maps its bit generator's output otherwise: doubles one
    # ulp off, integers off by one in their lowest bit, and a stream that keeps
    # a pending half where the kernel's does not.
    mutations = [
        lambda source, plan: [np.nextafter(a, np.inf) if a.dtype.kind == "f" else a
                              for a in replay(source, plan)],
        lambda source, plan: [a ^ 1 if a.dtype.kind == "i" else a for a in replay(source, plan)],
        lambda source, plan: (replay(source, plan), source.integers(0, 7, 1))[0],
    ]
    for broken in mutations:
        with pytest.raises(AssertionError, match="_CHECK_DRAWS ="):
            assert_committed_check_values_are_numpy_s(broken)
    # and a committed digest that is not the kernel's stops the load, as does
    # a committed start state the kernel's draws did not come from
    for name, value in (("_CHECK_DRAWS", (*kernel._CHECK_DRAWS[:2], "0" * 32)),
                        ("_CHECK_STARTS", ((1, 2, 3, 5, 0, 0), *kernel._CHECK_STARTS[1:]))):
        with monkeypatch.context() as m:
            m.setattr(kernel, name, value)
            with pytest.raises(DrawMismatch):
                kernel.check_draws(lib)


def test_no_compiler_fails_with_a_build_error(tmp_path, monkeypatch, fresh_library):
    monkeypatch.setenv("PATH", "")
    monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "cache")
    with pytest.raises(KernelBuildError, match="no C compiler"):
        kernel.library()
    assert list((tmp_path / "cache").glob("*")) == []


def test_a_build_is_cached_and_reused(tmp_path, monkeypatch, fresh_library):
    monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "cache")
    kernel.library()
    built = list((tmp_path / "cache").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"  # no temporary file left behind
    kernel.library.cache_clear()
    monkeypatch.setenv("PATH", "")  # a second build would fail
    kernel.library()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_relaxation(ModelSpec(rule="distributed_saving", eps_fixed=0.5), 12, 10, 8,
                               master_seed=1, workers=2),
        lambda: run_equilibrium(ModelSpec(pairing="lattice2d", lattice_side=4), 16, 5, 2, 8,
                                master_seed=1, workers=4),
        lambda: run_rrn_relaxation(6, (0.0, 1.0), 10, 4, master_seed=1, workers=2),
    ],
    ids=["relax", "dist", "rrn"],
)
def test_runs_load_the_kernel_in_the_main_thread(fresh_library, monkeypatch, run):
    # library() is a lock-free cache: it must be built, loaded and checked
    # once, in the main thread, before the pool's threads start any block.
    loaded_on = []
    check = kernel.check_draws
    monkeypatch.setattr(
        kernel, "check_draws", lambda lib: (loaded_on.append(threading.current_thread()), check(lib))
    )
    run()
    assert loaded_on == [threading.main_thread()]
    assert kernel.library.cache_info().currsize == 1


def _modules_at_cli_start() -> list[str]:
    code = "import sys, kinex.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_block_and_kernel_modules_are_not_imported_at_cli_start():
    # Every start compiles what it imports where no bytecode cache is written;
    # these modules serve only the wealth models' blocks, and runs import them
    # when they start.
    # So the CLI's start neither builds nor loads the kernel.
    lazy = ["kinex.block", "kinex.kernel"]
    assert [m for m in lazy if m in _modules_at_cli_start()] == []


def test_a_built_kernel_loads_without_the_compiler_modules():
    # subprocess and what it imports cost every run a few milliseconds; only
    # a build needs them.
    kernel.library()  # built here, if the cache held no build
    code = "import sys, kinex.kernel as k; k.library(); print('subprocess' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_a_loaded_kernel_leaves_numpy_random_unloaded():
    # The load checks compare the kernel with committed values, so no run
    # imports numpy.random (about 5 ms in a fresh process) to check it.
    code = "import sys, kinex.kernel as k; k.library(); print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(kernel.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_multiprocessing_is_not_imported_at_cli_start():
    # The fan-out imports its thread pool when a run has more than one block
    # and more than one worker; a 1-worker start loads none of it.
    assert [m for m in _modules_at_cli_start() if m.startswith("multiprocessing")] == []
