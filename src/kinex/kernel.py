"""The compiled kernel, ``_kernel.c``, built on first use and loaded with ctypes.

It holds the wealth models' step (``kx_step``, its draws on PCG64 state the
caller owns, and ``kx_run``, a relaxation block's whole series), the fresh
state of each of a block's streams (``kx_seed``, numpy's ``SeedSequence``
hash and PCG64 seeding, read by :func:`seed_words`) and the resistor
lattice's series of Jacobi sweeps (``kx_relax``; one sweep is ``t_max =
1``).  The kernel steps numpy's PCG64 itself, from the state that
:func:`seed_words` makes or :func:`pcg64_words` reads through
``PCG64.state``, in chunks of words computed four states ahead, and maps
whole words to two 32-bit integers at a time where no half is pending and no
value might be rejected; the draw check is what holds it to the installed
numpy, on each of those paths.  The lattice's stencil is stated in the sweep
and once in numpy, as :func:`neighbor_sum`, here beside the sweep check, its
oracle use; :mod:`rrn` imports it from here for the lattice's weight sums and
the Kirchhoff residuals, so a wealth run's check compiles no lattice code.
:func:`library` compiles the source with the system C compiler (``cc``) into
``_build/`` beside it, under a name keyed by the source digest, the flags and
the platform, loads it, holds its draws to numpy's ``Generator``
(:func:`check_draws`), its sweeps to :func:`neighbor_sum`
(:func:`check_sweep`) and its seeding to numpy's ``SeedSequence``
(:func:`check_seeds`), once per process.  On x86-64 with gcc, ``kx_relax`` is
built twice, for baseline x86-64 and for AVX2, and the loader picks the clone
the CPU runs; the sweep check holds whichever it picked.  The one fan-out,
:func:`streams.map_stream_blocks`, calls :func:`library` in the calling thread
before any block starts, so that worker threads never race its build or its
checks.  Who imports this module: that fan-out when a run starts, and
:mod:`block` and :mod:`rrn` at their own import, which happens only when a run
needs them.  No module the CLI's start loads imports it, so the start neither
builds nor loads the kernel.
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
from .streams import RngStream, replay

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
    loaded and checked (:func:`check_draws`, :func:`check_sweep`,
    :func:`check_seeds`), once per process."""
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
    check_sweep(lib)
    check_seeds(lib)
    return lib


def pcg64_words(bit_generator) -> list[int]:
    """A PCG64 bit generator's state as the kernel's six words: state low and
    high, increment low and high, has_uint32 and uinteger."""
    state = bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise InvalidParameter(f"the kernel steps PCG64 streams, not {state['bit_generator']}")
    s, inc = state["state"]["state"], state["state"]["inc"]
    return [s % 2**64, s >> 64, inc % 2**64, inc >> 64, state["has_uint32"], state["uinteger"]]


def seed_words(lib: ctypes.CDLL, master_seed: int, start: int, stop: int) -> np.ndarray:
    """The fresh state of stream (master_seed, c), for each c in [start, stop),
    as the six words of :func:`pcg64_words`, one row a stream: the state of
    ``RngStream(master_seed, c).gen.bit_generator``, made by ``kx_seed``
    without a Generator.  Python only splits the seed into 32-bit words."""
    master_seed = operator.index(master_seed)  # a numpy integer too, as SeedSequence takes it
    if master_seed < 0:
        raise InvalidParameter(f"master_seed={master_seed} must be >= 0")
    n_run = max(4, -(-master_seed.bit_length() // 32))
    run = np.frombuffer(master_seed.to_bytes(4 * n_run, "little"), dtype="<u4").astype(np.uint32)
    states = np.empty((stop - start, 6), dtype=np.uint64)
    lib.kx_seed(run.ctypes.data, n_run, start, stop - start, states.ctypes.data)
    return states


def kernel_draws(lib: ctypes.CDLL, bit_generator, plan: tuple) -> list[np.ndarray]:
    """Make the draws ``plan`` lists, ``(name, *args)`` Generator calls as in
    :func:`exchange._step_plan`, through the kernel on the state of
    ``bit_generator``, a PCG64, and leave it where the kernel left it."""
    words = np.array(pcg64_words(bit_generator), dtype=np.uint64)
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
    s_lo, s_hi, inc_lo, inc_hi, has_uint32, uinteger = map(int, words)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
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


def check_draws(lib: ctypes.CDLL) -> None:
    """Hold the kernel's draws to numpy's Generator on three streams.

    Raises DrawMismatch when any draw differs, or when a stream does not
    continue as the Generator's does (a pending half lost or kept wrongly),
    for example under a numpy whose PCG64 steps, or whose Generator maps its
    output, otherwise, instead of letting a run continue on different bits.
    """
    mismatch = DrawMismatch(f"the step kernel's draws differ from the Generator of numpy {np.__version__}")
    for plan in _CHECK_PLANS:
        gens = [RngStream(_CHECK_SEED, c).gen for c in range(3)]
        oracles = [RngStream(_CHECK_SEED, c).gen for c in range(3)]
        for g in (gens[1], oracles[1]):
            g.integers(0, 7, 1)  # leaves a half pending in stream 1
        for _ in range(3):
            for g, oracle in zip(gens, oracles):
                got = kernel_draws(lib, g.bit_generator, plan)
                if any(a.tobytes() != b.tobytes() for a, b in zip(got, replay(oracle, plan))):
                    raise mismatch
        for g, oracle in zip(gens, oracles):
            if g.integers(0, 2**31 + 1, 3).tobytes() != oracle.integers(0, 2**31 + 1, 3).tobytes():
                raise mismatch


# Master seeds of one, two, three and five 32-bit words (words beyond the
# pool's four take their own path in kx_seed), each on a stream index of one
# spawn word and one of two.
_CHECK_SEEDS = (_CHECK_SEED, _CHECK_SEED << 32 | 7, 2**95 + _CHECK_SEED, 2**130 + _CHECK_SEED)
_CHECK_STREAMS = (0, 2**32 + 1)


def check_seeds(lib: ctypes.CDLL) -> None:
    """Hold the kernel's fresh stream states (:func:`seed_words`) to the
    PCG64 state of ``RngStream(seed, c)`` for the seeds and streams above.

    Raises SeedMismatch when any word differs, or when that stream's bit
    generator is not a PCG64, for example under a numpy whose SeedSequence
    hashes or whose PCG64 seeds otherwise, instead of letting a run start its
    streams from other states than numpy's.
    """
    for seed in _CHECK_SEEDS:
        for c in _CHECK_STREAMS:
            bit_generator = RngStream(seed, c).gen.bit_generator
            if (not isinstance(bit_generator, np.random.PCG64)
                    or seed_words(lib, seed, c, c + 1).tolist() != [pcg64_words(bit_generator)]):
                raise SeedMismatch(
                    f"the kernel's stream seeding differs from the SeedSequence of numpy {np.__version__}"
                )


def neighbor_sum(cond_h: np.ndarray, cond_v: np.ndarray, potential: np.ndarray) -> np.ndarray:
    """sum_nb g_nb V_nb at every interior node, (L - 2) x L, on arrays laid out
    as :class:`rrn.ResistorLattice`'s: the stencil, stated once in numpy, its
    terms added in the kernel's order (up, down, right, left).  A sweep is this
    sum over ``weight_sum``, bit for bit, as :func:`check_sweep` checks."""
    v, g_h = potential[1:-1], cond_h[1:-1]
    return (cond_v[:-1] * potential[:-2] + cond_v[1:] * potential[2:]
            + g_h * np.roll(v, -1, axis=1) + np.roll(g_h, 1, axis=1) * np.roll(v, 1, axis=1))


def check_sweep(lib: ctypes.CDLL) -> None:
    """Hold the kernel's lattice sweeps to numpy on a fixed lattice.

    Three sweeps (odd, so the kernel copies its result back) of a 13 x 13
    lattice with random potentials, boundary rows included: 11 middle nodes a
    row, so a vectorized loop runs its remainder too, at 2 or 4 lanes.  The
    numpy form is :func:`neighbor_sum` over the weight sums, with its mean
    |dV| summed strictly in row-major order.  Raises SweepMismatch when any
    sweep's value or the final potentials differ in any bit, for example under
    a build whose compiler fused or reordered an operation, instead of letting
    a run continue on different bits.
    """
    L, sweeps = 13, 3
    g = np.random.default_rng(_CHECK_SEED)
    cond_h, cond_v, potential = g.random((L, L)) + 0.1, g.random((L - 1, L)) + 0.1, g.random((L, L))
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
