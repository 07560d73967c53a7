"""numpy ``Generator`` draws re-derived from the raw words of its PCG64 bit generator.

:class:`BlockDraws` makes one step's draws for a block of streams from one
``random_raw`` call per stream, bit for bit what ``Generator.integers``,
``random`` and ``uniform`` return for the same calls, and
:func:`check_raw_draws` holds it to the ``Generator`` once per process.  It
decodes only draws in which no value is rejected; numpy's ``Generator`` is the
only exact decoder, and makes a step's draws again for every stream that
rejected one.  Only :class:`block.EnsembleBlock` uses this module, and it is
imported with it, when the first block is built.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DrawMismatch
from .streams import RngStream, replay

_DOUBLE_UNIT = 2.0**-53


def _unit_doubles(words: np.ndarray, out: np.ndarray) -> None:
    """``Generator.random`` from raw words into ``out``: the top 53 bits scaled to
    [0, 1).  Shifts ``words`` in place."""
    np.right_shift(words, 11, out=words)
    np.multiply(words, _DOUBLE_UNIT, out=out)


def _products(halves: np.ndarray, span: int, out: np.ndarray | None = None) -> np.ndarray:
    """Lemire's m = u32 * span for each 32-bit value, always in uint64.

    The dtype is explicit because numpy < 2 keeps uint32 * uint64-scalar in
    uint32, which would overflow.
    """
    return np.multiply(halves, np.uint64(span), out=out, dtype=np.uint64)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit values of ``words`` in the order the bit generator hands them
    out: each word's low half, then its high half.

    On a little-endian host that is the uint32 view; check_raw_draws holds the
    decoding to the Generator on the host it runs on.
    """
    return words.view(np.uint32)


def _store_half(bit_generator, half: int | None) -> None:
    """Leave ``half`` pending in the bit generator (None: no half pending)."""
    state = bit_generator.state
    state["has_uint32"] = int(half is not None)
    if half is not None:
        state["uinteger"] = half
    bit_generator.state = state


def _rewind(bit_generator, words: int, half: int | None) -> None:
    """Take ``bit_generator`` back ``words`` words, exactly (PCG64 advances modulo
    2**128), and leave ``half`` pending again, as advancing clears it."""
    bit_generator.advance(-words)
    _store_half(bit_generator, half)


def _rejects(low: np.ndarray, threshold: int) -> np.ndarray:
    """Rows with a value the bounded method redraws, from the low 32 bits
    ``m mod 2**32`` of each row's Lemire products."""
    return low.min(axis=1) < threshold


def slot_major(plan: tuple, streams: int) -> list[np.ndarray]:
    """Arrays for :meth:`BlockDraws.draw` laid out as EnsembleBlock's buffers:
    one ``(streams, size)`` view per plan entry, transposed from slot-major."""
    return [
        np.empty((args[-1], streams), dtype=np.int64 if name == "integers" else float).T
        for name, *args in plan
    ]


class BlockDraws:
    """One step's ``Generator`` draws for a block of streams, from one ``random_raw``
    call per stream.

    ``plan`` lists a step's draws as ``(name, *args)`` calls of ``integers(low,
    high, size)``, ``random(size)`` or ``uniform(low, high, size)``: integer draws
    first, and an even number of 32-bit values among them.  :meth:`draw` fills
    one ``(streams, size)`` array per entry, row r equal bit for bit to what
    ``gens[r]`` returns for the same calls, and leaves each bit generator where
    the ``Generator`` would, its pending half included.

    Each step draws, per stream, the words the plan takes when no value is
    rejected, and decodes every row from them in vectorized passes, written
    straight into the caller's arrays; the words themselves serve as scratch.
    A row that carries a pending half reads it first and leaves its last half
    pending, so it takes as many words as the others.  A row that rejected a
    value is rewound by those words, its pending half restored, and the plan is
    replayed through numpy's ``Generator`` on its bit generator.  At a span of N
    a value is rejected with probability (2**32 mod N) / 2**32 < N / 2**32, so
    a mean-field step rejects in at most 2 N**2 / 2**32 of its rows: 5e-6 at
    N = 100, 5e-4 at N = 1000, 0.05 at N = 10**4.
    """

    def __init__(self, gens: list[np.random.Generator], plan: tuple):
        n_ints = sum(name == "integers" for name, *_ in plan)
        halves = sum(high - low > 1 and size for _, low, high, size in plan[:n_ints])
        if any(name == "integers" for name, *_ in plan[n_ints:]) or halves % 2:
            raise ValueError("plan needs integer draws first and an even number of halves")
        self._plan = plan
        self._bgs = [g.bit_generator for g in gens]
        self._int_words = halves // 2
        words = self._int_words + sum(args[-1] for _, *args in plan[n_ints:])
        self._raw = np.empty((len(gens), words), dtype=np.uint64)
        states = [bg.state for bg in self._bgs]
        self._pending = np.array([bool(s["has_uint32"]) for s in states])
        self._half = np.array([s["uinteger"] for s in states], dtype=np.uint32)

    def draw(self, out: list[np.ndarray]) -> None:
        """Make one step's draws into ``out``: per plan entry an int64 (integers)
        or float64 array of shape ``(streams, size)``, of any strides."""
        raw = self._raw
        for r, bg in enumerate(self._bgs):
            raw[r] = bg.random_raw(raw.shape[1])
        halves = _halves(raw[:, : self._int_words])
        held = self._half.copy()  # each row's pending half before the step
        pending = np.flatnonzero(self._pending) if self._int_words else ()
        if len(pending):
            # The pending half comes first and the row's last half is left over.
            self._half[pending] = halves[pending, -1]
            halves[pending, 1:] = halves[pending, :-1]
            halves[pending, 0] = held[pending]
        redo = np.zeros(len(raw), dtype=bool)
        pos, word = 0, self._int_words
        for values, (name, *args) in zip(out, self._plan):
            if name == "integers":
                low, high, size = args
                span = high - low
                if span == 1:
                    values.fill(low)
                    continue
                u = halves[:, pos : pos + size]
                pos += size
                m = values.view(np.uint64)
                _products(u, span, out=m)
                np.right_shift(m, 32, out=m)
                if low:
                    values += low
                threshold = (1 << 32) % span
                if threshold:
                    # m mod 2**32 is the uint32 product, made in place of the halves
                    redo |= _rejects(np.multiply(u, np.uint32(span), out=u), threshold)
            else:
                size = args[-1]
                _unit_doubles(raw[:, word : word + size], values)
                word += size
                if name == "uniform":
                    lo, hi = args[:2]
                    values *= hi - lo  # lo + (hi - lo) * random(), operation by operation
                    values += lo
        for r in pending:
            _store_half(self._bgs[r], int(self._half[r]))
        for r in np.flatnonzero(redo):
            bg = self._bgs[r]
            _rewind(bg, raw.shape[1], int(held[r]) if self._pending[r] else None)
            for values, row in zip(out, replay(np.random.Generator(bg), self._plan)):
                values[r] = row
            state = bg.state
            self._pending[r] = bool(state["has_uint32"])
            self._half[r] = state["uinteger"]


_CHECK_SEED = 20260811
_CHECK_PLANS = (
    # Spans where about half and a quarter of all values are rejected, at an odd
    # size: nearly every row is rewound and replayed, and an odd number of
    # rejections leaves a half pending into the next step.  Stream 1 starts
    # the first step with a half pending that the first span accepts, so a
    # rewind that loses it changes the draws.
    (("integers", 0, 2**31 + 1, 7), ("integers", 0, 3 * 2**30 + 7, 7), ("uniform", -0.5, 1.5, 7)),
    # A step of the batched kernel at n = 101: rows decode in vectorized passes,
    # the one that starts with a half pending too.
    (("integers", 0, 101, 101), ("integers", 0, 100, 101), ("random", 101)),
)


@functools.cache
def check_raw_draws() -> None:
    """Hold BlockDraws to numpy's Generator, once per process.

    Raises DrawMismatch when any draw differs, for example under a numpy whose
    Generator maps raw words differently, instead of letting a run continue on
    different bits.
    """
    mismatch = DrawMismatch(f"raw-word draws differ from the Generator of numpy {np.__version__}")
    for plan in _CHECK_PLANS:
        gens = [RngStream(_CHECK_SEED, c).gen for c in range(3)]
        oracles = [RngStream(_CHECK_SEED, c).gen for c in range(3)]
        for g in (gens[1], oracles[1]):
            g.integers(0, 7, 1)  # leaves a half pending in stream 1
        block = BlockDraws(gens, plan)
        got = slot_major(plan, len(gens))
        for _ in range(3):
            block.draw(got)
            for r, g in enumerate(oracles):
                if any(a[r].tobytes() != b.tobytes() for a, b in zip(got, replay(g, plan))):
                    raise mismatch
        # then the streams must continue alike, pending halves included
        for g, oracle in zip(gens, oracles):
            if g.integers(0, 2**31 + 1, 3).tobytes() != oracle.integers(0, 2**31 + 1, 3).tobytes():
                raise mismatch
