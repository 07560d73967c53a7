"""The compiled kernel, ``_kernel.c``, built on first use and loaded with ctypes.

It holds the wealth models' step (``kx_step``, its draws on PCG64 state the
caller owns, and ``kx_run``, a relaxation block's whole series), the fresh
state of each of a block's streams (``kx_seed``, numpy's ``SeedSequence``
hash and PCG64 seeding, read by :func:`seed_words`) and the resistor
lattice's series of Jacobi sweeps (``kx_relax``; one sweep is ``t_max =
1``).  The kernel steps numpy's PCG64 itself, from the six words that
:func:`seed_words` makes, in chunks of words computed four states ahead, and
maps whole words to two 32-bit integers at a time where no half is pending
and no value might be rejected; :func:`kernel_draws` makes ``Generator``-style
draws through it, for the draw check and the resistor lattice.  A PCG64
stream is a pure function of its six words, so committed values pin it as
tightly as a live ``Generator`` would: the load checks compare the kernel with
values committed here, equal to what numpy 2.4.6's ``SeedSequence`` and
``Generator`` give, and no run imports ``numpy.random``.  A test recomputes
those values from the installed numpy, so a numpy that streams otherwise fails
a test, not a run.  The lattice's stencil is stated in the sweep and once in
numpy, as :func:`neighbor_sum`, here beside the sweep check, its oracle use;
:mod:`rrn` imports it from here for the lattice's weight sums and the
Kirchhoff residuals, so a wealth run's check compiles no lattice code.
:func:`library` compiles the source with the system C compiler (``cc``) into
``_build/`` beside it, under a name keyed by the source digest, the flags and
the platform, loads it, and holds its draws (:func:`check_draws`) and its
seeding (:func:`check_seeds`) to the committed values and its sweeps to
:func:`neighbor_sum` (:func:`check_sweep`), once per process.  On x86-64 with
gcc, ``kx_relax`` is built twice, for baseline x86-64 and for AVX2, and the
loader picks the clone the CPU runs; the sweep check holds whichever it
picked.  The one fan-out, :func:`streams.map_stream_blocks`, calls
:func:`library` in the calling thread before any block starts, so that worker
threads never race its build or its checks.  Who imports this module: that
fan-out when a run starts, and :mod:`block` and :mod:`rrn` at their own
import, which happens only when a run needs them.  No module the CLI's start
loads imports it, so the start neither builds nor loads the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import operator
import os
import platform
import sys
from pathlib import Path

import numpy as np

from .errors import DrawMismatch, InvalidParameter, KernelBuildError, SeedMismatch, SweepMismatch

PINNED_NUMPY = "2.4.6"
SOURCE = Path(__file__).with_name("_kernel.c")
BUILD_DIR = Path(__file__).with_name("_build")
# No FMA contraction, no fast-math and no -march=native: the kernel has to do
# run_time_step's floating-point operations, and the sweep's, exactly as they
# are written.  A fused multiply-add rounds once where a * b + c rounds twice,
# so contraction would change bits, and differently where the AVX2 clone of
# kx_relax could fuse and the baseline build could not.  Vectorizing, at any
# width, reorders no floating-point operation, and IEEE +, *, / and fabs give
# the same bits in a vector lane as in a scalar; it makes a sweep at L = 100
# about 1.6x faster, and the AVX2 clone about 1.2x more.
FLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-fPIC", "-shared")

_int, _i64, _u64, _f64, _ptr = (
    ctypes.c_int, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p
)
_STEP = (_int, _i64, _i64, _i64, _ptr, _u64, _ptr, _int, *[_ptr] * 8)  # kx_step's arguments
_SIGNATURES = {  # name: (restype, argtypes)
    "kx_integers": (None, (_ptr, _u64, _i64, _ptr)),
    "kx_uniform": (None, (_ptr, _f64, _f64, _i64, _ptr)),
    "kx_step": (None, _STEP),
    "kx_pairwise_sum": (_f64, (_ptr, _i64)),
    "kx_run": (None, (*_STEP, _i64, _ptr, _ptr)),
    "kx_relax": (None, (_i64, *[_ptr] * 5, _i64, _ptr)),
    "kx_seed": (None, (_ptr, _i64, _u64, _i64, _ptr)),
}


def _compile(path: Path) -> None:
    """Compile SOURCE to ``path``, atomically: a concurrent build or load sees
    the whole library or none."""
    # here, not at import: a run that finds the kernel built loads none of them
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        raise KernelBuildError("no C compiler (cc) on PATH to build the kernel")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True)
        if done.returncode:
            why = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[0]
            raise KernelBuildError(f"cc could not build the kernel: {why}")
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


@functools.cache
def library() -> ctypes.CDLL:
    """The kernel, built if its cache holds no build of this source,
    loaded and checked (:func:`check_draws`, :func:`check_seeds`,
    :func:`check_sweep`), once per process."""
    key = hashlib.blake2b(SOURCE.read_bytes(), digest_size=8)
    key.update(repr((FLAGS, sys.platform, platform.machine())).encode())
    path = BUILD_DIR / f"kernel-{key.hexdigest()}.so"
    if not path.is_file():
        _compile(path)
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    check_draws(lib)
    check_seeds(lib)
    check_sweep(lib)  # last: its lattice is drawn on a stream seed_words made
    return lib


def seed_words(lib: ctypes.CDLL, master_seed: int, start: int, stop: int) -> np.ndarray:
    """The fresh state of stream (master_seed, c), for each c in [start, stop),
    as six words, one row a stream: the state of
    ``RngStream(master_seed, c).gen.bit_generator`` laid out as the kernel
    reads it (state low and high, increment low and high, has_uint32 and
    uinteger), made by ``kx_seed`` without a Generator.  Python only splits the
    seed into 32-bit words."""
    master_seed = operator.index(master_seed)  # a numpy integer too, as SeedSequence takes it
    if master_seed < 0:
        raise InvalidParameter(f"master_seed={master_seed} must be >= 0")
    n_run = max(4, -(-master_seed.bit_length() // 32))
    run = np.frombuffer(master_seed.to_bytes(4 * n_run, "little"), dtype="<u4").astype(np.uint32)
    states = np.empty((stop - start, 6), dtype=np.uint64)
    lib.kx_seed(run.ctypes.data, n_run, start, stop - start, states.ctypes.data)
    return states


def kernel_draws(lib: ctypes.CDLL, words: np.ndarray, plan: tuple) -> list[np.ndarray]:
    """Make the draws ``plan`` lists, ``(name, *args)`` Generator calls as in
    :func:`exchange._step_plan`, through the kernel on the stream whose state
    is ``words``, six uint64 words laid out as :func:`seed_words` lays out a
    row, and leave ``words`` where the kernel left the stream."""
    out = []
    for name, *args in plan:
        if name == "integers":
            low, high, size = args
            values = np.empty(size, dtype=np.int64)
            lib.kx_integers(words.ctypes.data, high - low, size, values.ctypes.data)
            values += low
        else:  # random(size) is uniform(0.0, 1.0, size)
            lo, hi, size = args if name == "uniform" else (0.0, 1.0, *args)
            values = np.empty(size)
            lib.kx_uniform(words.ctypes.data, lo, hi, size, values.ctypes.data)
        out.append(values)
    return out


_CHECK_SEED = 20260811
_CHECK_PLANS = (
    # Spans where about half and a quarter of all values are rejected, at an odd
    # size, so that an odd number of rejections leaves a half pending into the
    # next step.  Stream 1 starts with a half pending.
    (("integers", 0, 2**31 + 1, 7), ("integers", 0, 3 * 2**30 + 7, 7), ("uniform", -0.5, 1.5, 7)),
    # A mean-field step at n = 101.
    (("integers", 0, 101, 101), ("integers", 0, 100, 101), ("random", 101)),
    # A lattice-style step over more than one chunk of words drawn ahead:
    # power-of-two spans, which map whole words by a shift, then doubles; then
    # a span whose passes over whole words often stop at a value that might be
    # rejected, and rewind the stream to it.
    (("integers", 0, 64, 515), ("integers", 0, 4, 515), ("random", 515), ("integers", 0, 2**27 + 1, 41)),
)
# What the draw check draws besides each plan: one value that leaves a half
# pending in stream 1 first, and three that continue every stream last.
_CHECK_PENDING = (("integers", 0, 7, 1),)
_CHECK_CONTINUE = (("integers", 0, 2**31 + 1, 3),)
# Committed values, equal to what numpy 2.4.6's SeedSequence and Generator
# give (tests/test_kernel.py recomputes them from the installed numpy): the fresh
# states of streams (_CHECK_SEED, 0..2), and the digest of each plan's draws.
_CHECK_STARTS = (
    (0x3d0fe0276cccbf4e, 0x0940fcfb73f6ccf1, 0x0e2fc5bb4df83d3f, 0x6ed5226017c30091, 0, 0),
    (0xdaf08456ab20d514, 0x9f334ecc648e7ff5, 0xd6e1a96d37b58951, 0xc6447773df3e50f8, 0, 0),
    (0x593a89da5d8bd048, 0x0a4bee0a1227c1ed, 0x1cc877654558a749, 0xe7f6b321190818e0, 0, 0),
)
_CHECK_DRAWS = (
    "cae061473d2a31c76a52c91ae6cea548",
    "e943650ca019f07f36e1177b511bc354",
    "028d546d13e87469202e97af83a69f22",
)


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def check_draws(lib: ctypes.CDLL) -> None:
    """Hold the kernel's draws to the values committed for numpy's Generator
    on three streams.

    Streams (_CHECK_SEED, 0..2) start from their committed fresh states
    (``_CHECK_STARTS``), not from :func:`seed_words`, so that this check
    holds the draws alone.  For each plan the check makes, on fresh streams,
    the pending draw of stream 1, three rounds of the plan on each stream and
    the continuing draws, and digests them with the streams' final six words;
    each digest must equal the committed one (``_CHECK_DRAWS``).  Raises
    DrawMismatch when any differs, for example under a build whose PCG64
    steps, or whose maps turn words into values, otherwise, or which loses
    or keeps a pending half wrongly, instead of letting a run continue on
    different bits.
    """
    for plan, want in zip(_CHECK_PLANS, _CHECK_DRAWS):
        words = np.array(_CHECK_STARTS, dtype=np.uint64)
        values = kernel_draws(lib, words[1], _CHECK_PENDING)
        for _ in range(3):
            for w in words:
                values += kernel_draws(lib, w, plan)
        for w in words:
            values += kernel_draws(lib, w, _CHECK_CONTINUE)
        if _digest([*values, words]) != want:
            raise DrawMismatch(f"the step kernel's draws differ from numpy {PINNED_NUMPY}'s Generator")


# Master seeds of one, two, three and five 32-bit words (words beyond the
# pool's four take their own path in kx_seed), each on a stream index of one
# spawn word and one of two.
_CHECK_SEEDS = (_CHECK_SEED, _CHECK_SEED << 32 | 7, 2**95 + _CHECK_SEED, 2**130 + _CHECK_SEED)
_CHECK_STREAMS = (0, 2**32 + 1)
# The committed fresh state of each (seed, stream) above, seeds outer, and the
# digest of the sweep check's lattice.
_CHECK_SEED_WORDS = (
    (0x3d0fe0276cccbf4e, 0x0940fcfb73f6ccf1, 0x0e2fc5bb4df83d3f, 0x6ed5226017c30091, 0, 0),
    (0x839b9b3455d45939, 0x145c94aeaedef99b, 0xa4df80425e1c72f5, 0x8f19c15397570d32, 0, 0),
    (0xa1db033737de3f47, 0x640ec0e88098d8a0, 0x67c8598fb83afa1d, 0xb8f956bb31a99e18, 0, 0),
    (0x6e234c8074fe99ed, 0xccc4b6a958de936e, 0x82803a7901cb48c7, 0x95d8dd7a42c9405b, 0, 0),
    (0x73f8514ed7364d43, 0x8601bf0e41920f6a, 0x88719b8a31d35cab, 0x47ae9b7e2f45bb05, 0, 0),
    (0xf7b535e7db45ab49, 0x21396733c5a484de, 0x3ec7859cec54dc2f, 0x066eb0ec7c958146, 0, 0),
    (0x81fe3f2cf51e7f2f, 0xaf7ceaeb77767cd1, 0xfd7e34e61f7c52c7, 0xf21791fea2a4516a, 0, 0),
    (0xf9331ab12a34cbdc, 0xf560d9e5f7bb715b, 0x56144f363fb7d099, 0x621afe56b2bc0bb0, 0, 0),
)
_CHECK_LATTICE = "c5e26f85d156137cf824d108e38b8f0a"


def check_seeds(lib: ctypes.CDLL) -> None:
    """Hold the kernel's fresh stream states (:func:`seed_words`) to the
    committed PCG64 states of ``RngStream(seed, c)`` (``_CHECK_SEED_WORDS``)
    for the seeds and streams above.

    Raises SeedMismatch when any word differs, for example under a build whose
    SeedSequence hash or PCG64 seeding differs from numpy's, instead of letting
    a run start its streams from other states than numpy's.
    """
    got = [seed_words(lib, seed, c, c + 1)[0] for seed in _CHECK_SEEDS for c in _CHECK_STREAMS]
    if np.array(got).tolist() != [list(w) for w in _CHECK_SEED_WORDS]:
        raise SeedMismatch(f"the kernel's stream seeding differs from numpy {PINNED_NUMPY}'s SeedSequence")


def neighbor_sum(cond_h: np.ndarray, cond_v: np.ndarray, potential: np.ndarray) -> np.ndarray:
    """sum_nb g_nb V_nb at every interior node, (L - 2) x L, on arrays laid out
    as :class:`rrn.ResistorLattice`'s: the stencil, stated once in numpy, its
    terms added in the kernel's order (up, down, right, left).  A sweep is this
    sum over ``weight_sum``, bit for bit, as :func:`check_sweep` checks."""
    v, g_h = potential[1:-1], cond_h[1:-1]
    return (cond_v[:-1] * potential[:-2] + cond_v[1:] * potential[2:]
            + g_h * np.roll(v, -1, axis=1) + np.roll(g_h, 1, axis=1) * np.roll(v, 1, axis=1))


def _sweep_lattice(lib: ctypes.CDLL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep check's 13 x 13 lattice: conductances in [0.1, 1.1) and
    potentials in [0, 1), boundary rows included, drawn in that order on stream
    (_CHECK_SEED, 0) as ``Generator.random`` draws them."""
    L = 13
    plan = (("random", L * L), ("random", (L - 1) * L), ("random", L * L))
    u_h, u_v, potential = kernel_draws(lib, seed_words(lib, _CHECK_SEED, 0, 1)[0], plan)
    return u_h.reshape(L, L) + 0.1, u_v.reshape(L - 1, L) + 0.1, potential.reshape(L, L)


def check_sweep(lib: ctypes.CDLL) -> None:
    """Hold the kernel's lattice sweeps to numpy on a fixed lattice.

    Three sweeps (odd, so the kernel copies its result back) of
    :func:`_sweep_lattice`, whose digest must be the committed one
    (``_CHECK_LATTICE``): 11 middle nodes a row, so a vectorized loop runs its
    remainder too, at 2 or 4 lanes.  The numpy form is :func:`neighbor_sum`
    over the weight sums, with its mean |dV| summed strictly in row-major
    order.  Raises SweepMismatch when the lattice or any sweep's value or the
    final potentials differ in any bit, for example under a build whose
    compiler fused or reordered an operation, instead of letting a run continue
    on different bits.
    """
    cond_h, cond_v, potential = _sweep_lattice(lib)
    if _digest((cond_h, cond_v, potential)) != _CHECK_LATTICE:
        raise SweepMismatch(f"the sweep check's lattice differs from numpy {PINNED_NUMPY}'s draws")
    L, sweeps = potential.shape[0], 3
    weight_sum = neighbor_sum(cond_h, cond_v, np.ones((L, L)))
    want, want_xs = potential.copy(), np.empty(sweeps)
    for t in range(sweeps):
        new = neighbor_sum(cond_h, cond_v, want) / weight_sum
        d = np.abs(new - want[1:-1]).ravel()
        want_xs[t] = np.add.accumulate(d)[-1] / d.size
        want[1:-1] = new
    spare, xs = np.empty((L, L)), np.empty(sweeps)
    lib.kx_relax(L, cond_v.ctypes.data, cond_h.ctypes.data, weight_sum.ctypes.data,
                 potential.ctypes.data, spare.ctypes.data, sweeps, xs.ctypes.data)
    if (xs.tobytes(), potential.tobytes()) != (want_xs.tobytes(), want.tobytes()):
        raise SweepMismatch("the kernel's lattice sweep differs from the numpy stencil")
