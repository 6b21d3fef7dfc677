"""CPython's Mersenne Twister, replayed in numpy for many seeds at once.

``random.Random(s)``, for an int ``s``, seeds MT19937 by ``init_by_array``
over the 32-bit words of ``abs(s)``, least significant first (one zero
word for 0).  Each ``random()`` call tempers the next two state words
``a, b`` and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; a twist
regenerates the 624 words every 312 calls.  This module runs those steps
for many generators at once.  A state is a ``(624, lanes)`` ``uint32``
array, one column per generator, so every step of ``init_by_array`` and
of the twist is one operation on a whole row or block of rows.  The
results equal CPython's bit for bit, and no ``random.Random`` is built
per seed:

* :func:`random_draws` — calls ``first … first + count − 1`` of
  ``random.Random(s).random()`` for each seed ``s``;
* :func:`randrange63` — ``random.Random(seed).randrange(2**63)``, called
  ``count`` times, read from one generator's ``getrandbits`` in bulk;
* :class:`RandomStreams` — one generator per node, read node by node as
  a ``random.Random`` (the object engine) or as arrays of draws (kernels).

Every operand is an explicit ``np.uint32`` (or ``np.uint64``), so the
wrap-around arithmetic is the same under NumPy 1.x and 2.x promotion.
"""

from __future__ import annotations

import random

import numpy as np

_N, _M = 624, 397
_U32 = np.uint32
_LOWER, _UPPER = _U32(0x7FFFFFFF), _U32(0x80000000)
_MATRIX_A = _U32(0x9908B0DF)
_ONE, _THIRTY = _U32(1), _U32(30)
_INIT_MUL, _MIX_MUL = _U32(1664525), _U32(1566083941)

#: Lanes replayed together.  A chunk's state takes 2,496 bytes a lane
#: (20 MB here), and seeding it costs ~6,200 numpy calls (~4 ms) on top of
#: ~2 µs a lane.  At 8,192 lanes that fixed part is a fifth of a chunk's
#: time; 15 000 lanes took 41 ms, against 66 ms at 3,360 lanes (8 MB) and
#: 91 ms at 2,100 (5 MB), on a 2-vCPU VM.
CHUNK_LANES = 8192
#: Word pairs :func:`randrange63` reads per ``getrandbits`` call.
_PAIRS = 2**20


def _genrand(seed: int) -> list[int]:
    """MT19937's ``init_genrand``: the state ``init_by_array`` starts from."""
    state = [seed]
    for i in range(1, _N):
        prev = state[-1]
        state.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return state


_BASE = np.array(_genrand(19650218), dtype=_U32)


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """The state ``random.Random(s)`` holds after seeding, for each seed
    ``0 ≤ s < 2**64``, as a ``(624, lanes)`` ``uint32`` array.

    ``init_by_array`` runs 624 key steps, then 623 mixing steps, each
    rewriting one state word from the one before: 1,247 row operations.
    The key has one word below 2**32 and two from there on; for two
    words, odd key steps add the high word plus one.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    low = (seeds & np.uint64(0xFFFFFFFF)).astype(_U32)
    high = (seeds >> np.uint64(32)).astype(_U32)
    adds = (low, np.where(high != 0, high + _ONE, low))
    mt = np.empty((_N, seeds.shape[0]), dtype=_U32)
    rows = list(mt)
    # Each step is (word i, previous word, word i's old value, addend).
    # Until the wrap, key steps read word i at its init_genrand value.
    keyed = [(1, _BASE[0], _BASE[1], adds[0])]
    keyed += [(i, rows[i - 1], _BASE[i], adds[(i - 1) % 2]) for i in range(2, _N)]
    # Step 624 wraps to word 1, after word 0 took word 623's value.  The
    # mixing steps then rewrite words 2..623, and word 1 after the wrap.
    keyed.append((1, rows[_N - 1], rows[1], adds[1]))
    mixed = [(i, rows[i - 1], rows[i], _U32(i)) for i in range(2, _N)]
    mixed.append((1, rows[_N - 1], rows[1], _ONE))
    t = np.empty_like(low)
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    for steps, multiplier, combine in (
        (keyed, _INIT_MUL, np.add),
        (mixed, _MIX_MUL, np.subtract),
    ):
        for i, prev, word, addend in steps:
            shift(prev, _THIRTY, t)
            xor(t, prev, t)
            mul(t, multiplier, t)
            xor(t, word, t)
            combine(t, addend, rows[i])
    mt[0] = _UPPER
    return mt


#: The twist as four blocks ``(start, stop, next, source)``: word ``k``
#: becomes ``source word ^ f(word k, next word)``.  Each block reads only
#: words the blocks before it already rewrote, or words nothing rewrote
#: yet, so a block is one whole-array step.
_TWIST_BLOCKS = (
    (0, _N - _M, 1, _M),
    (_N - _M, 2 * (_N - _M), _N - _M + 1, 0),
    (2 * (_N - _M), _N - 1, 2 * (_N - _M) + 1, _N - _M),
    (_N - 1, _N, 0, _M - 1),
)


def twist(mt: np.ndarray, stop: int = _N) -> None:
    """Regenerate the state in place (CPython's ``genrand_uint32`` refill).

    With ``stop < 624`` only words ``0 … stop − 1`` are rewritten, and
    exactly; the state is then fit for reading those words, not for
    another twist.
    """
    for start, end, nxt, source in _TWIST_BLOCKS:
        if start >= stop:
            return
        end = min(end, stop)
        width = end - start
        y = mt[start:end] & _UPPER
        y |= mt[nxt : nxt + width] & _LOWER
        mag = y & _ONE
        np.multiply(mag, _MATRIX_A, out=mag)
        y >>= _ONE
        y ^= mag
        np.bitwise_xor(y, mt[source : source + width], out=mt[start:end])


def temper(words: np.ndarray) -> np.ndarray:
    """MT19937's output tempering of raw state words (a new array)."""
    y = words ^ (words >> _U32(11))
    y ^= (y << _U32(7)) & _U32(0x9D2C5680)
    y ^= (y << _U32(15)) & _U32(0xEFC60000)
    y ^= y >> _U32(18)
    return y


def _words(mt: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Output words ``first … stop − 1`` of freshly seeded states ``mt``
    (tempered, one row per word); twists ``mt`` in place as it goes."""
    rows = []
    for lo in range(0, stop, _N):
        end = min(stop - lo, _N)
        twist(mt, end)
        if lo + end > first:
            rows.append(temper(mt[max(first - lo, 0) : end]))
    return np.concatenate(rows or [mt[:0]])


def _res53(words: np.ndarray) -> np.ndarray:
    """``random()`` from consecutive word pairs (rows ``2i``, ``2i + 1``)."""
    a = (words[0::2] >> _U32(5)).astype(np.float64)
    b = (words[1::2] >> _U32(6)).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def random_draws(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """``random.Random(s).random()`` calls ``first … first + count − 1``
    for each seed ``0 ≤ s < 2**64``, as a ``(len(seeds), count)`` float64
    array.  Seeds are replayed :data:`CHUNK_LANES` at a time."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((seeds.shape[0], count), dtype=np.float64)
    for lo in range(0, seeds.shape[0], CHUNK_LANES):
        states = seed_states(seeds[lo : lo + CHUNK_LANES])
        words = _words(states, 2 * first, 2 * (first + count))
        del states  # before the next chunk's state is allocated
        out[lo : lo + CHUNK_LANES] = _res53(words).T
    return out


def randrange63(seed, count: int) -> np.ndarray:
    """``[random.Random(seed).randrange(2**63) for _ in range(count)]`` as
    an int64 array, from one generator.

    ``randrange(2**63)`` calls ``getrandbits(64)``, two words with the low
    one first, until the value is below 2**63: it keeps the word pairs
    whose high word is below 2**31.  One ``getrandbits(64 * k)`` call hands
    out the same words in the same order, ``k`` pairs at a time.
    """
    master = random.Random(seed)
    kept, found = [], 0
    while found < count:
        pairs = min(2 * (count - found) + 64, _PAIRS)
        bits = master.getrandbits(64 * pairs).to_bytes(8 * pairs, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(-1, 2)
        words = words[words[:, 1] < _UPPER].astype(np.int64)
        kept.append(words[:, 1] << 32 | words[:, 0])
        found += words.shape[0]
    return np.concatenate(kept)[:count] if kept else np.empty(0, dtype=np.int64)


class RandomStreams:
    """One ``random.Random(seeds[i])`` per node ``i`` of ``network``
    (dense order), read two ways.

    Called with a node, it returns a fresh ``random.Random`` for that
    node's seed (the object engine draws from it).  :meth:`draw` returns
    the ``index``-th ``random()`` of many nodes at once, by replay.  It
    keeps :attr:`WIDTH` consecutive draws per node in a table, so a
    kernel that draws once per phase replays each node once for its first
    phases; a later phase replays only the nodes it asks for.
    """

    #: Draws kept per node.  Luby's phases at n = 15 000 see 15 000,
    #: 3 420, 347 and 7 live nodes: four draws cover them all.  At
    #: n = 10^6 a fifth phase replays its one live node.
    WIDTH = 4

    def __init__(self, network, seeds: np.ndarray) -> None:
        self.network = network
        self.seeds = seeds
        self._table = self._first = None

    def __call__(self, node) -> random.Random:
        return random.Random(int(self.seeds[self.network.index[node]]))

    def draw(self, index: int, lanes: np.ndarray) -> np.ndarray:
        """``random()`` call ``index`` of each lane's generator (float64)."""
        if self._table is None:
            self._table = np.empty((self.seeds.shape[0], self.WIDTH))
            self._first = np.full(self.seeds.shape[0], -self.WIDTH, dtype=np.int64)
        offset = index - self._first[lanes]
        stale = (offset < 0) | (offset >= self.WIDTH)
        if stale.any():
            fresh = lanes[stale]
            self._table[fresh] = random_draws(self.seeds[fresh], index, self.WIDTH)
            self._first[fresh] = index
            offset[stale] = 0
        return self._table[lanes, offset]
