"""Seed-stream derivation.

Each stochastic ingredient of a run draws from its own generator, keyed by
the run seed plus a purpose tag (and, for delays, the ordered agent pair).
Changing one model in a config therefore never shifts the sample sequence
of another, and identical (config, seed) pairs replay bit-for-bit.
``streams`` builds the generators of many keys at once, bit for bit those
``stream`` builds one at a time.

Every per-tick input of a run that does not depend on the iterate
(activation masks, delays, errors, noise) is read through ``Rows``, the
one stream cursor, a run of rows at a time with ``take``.  ``Rows`` holds
the one fill policy: a stream is drawn in blocks of exactly the rows a
``take`` asks for, so a run's streams hold one of its tick blocks each,
except where a stream's bits depend on its block length (``CHUNK``) or a
block is capped in bytes (``DELAY_BLOCK_BYTES``).  How a stream is read
never changes its draws.  A ``constant`` fill serves one value and draws
nothing.
"""

from __future__ import annotations

import gc

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Rows per drawn block of a stream whose bits depend on its block length.
# Numpy gives the same draws however a stream is cut, except for the
# Euclidean norm-ball errors, which draw all of a block's normals before its
# radii: they always draw CHUNK rows of each and keep the first ones.
CHUNK = 4096

# Most bytes per drawn block of delay ages, so that a block of (d, d) age
# matrices stays small at large d; smaller delay blocks draw the same ages.
DELAY_BLOCK_BYTES = 64 * 2**20

# Purpose tags; values are part of the reproducibility contract, do not reorder.
DOMAIN_INIT = 0
DOMAIN_ACTIVATION = 1
DOMAIN_DELAY = 2
DOMAIN_ERROR = 3
DOMAIN_NOISE = 4
DOMAIN_INSTANCE = 5
DOMAIN_MDP = 6
DOMAIN_CHECK = 7
DOMAIN_ERROR_ALT = 8


def stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, domain, key...)."""
    entropy = (int(seed) & _MASK64, int(domain)) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# Fewer keys than this are seeded one ``stream`` at a time.  On a 2-core x86
# host (numpy 2.4.6) a bulk seeding took 130 us for one key and about 2 us
# more a key, a ``stream`` 16 us: 152 against 158 us at 10 keys.
BULK_KEYS = 10

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def streams(seed: int, domain: int, keys) -> list[np.random.Generator]:
    """``[stream(seed, domain, *key) for key in keys]``, seeded in bulk.

    Every key has the same number (one or more) of ints, each in ``0 ..
    2**32 - 1`` (``SeedSequence`` would read a larger one as two words).
    From ``BULK_KEYS`` keys on, the state words that ``SeedSequence`` gives
    ``PCG64`` are hashed for all keys at once, and numpy seeds each
    ``PCG64`` from them: the generators are bit for bit those of ``stream``.
    """
    if not all(0 <= k <= _MASK32 for key in keys for k in key):
        raise ValueError("stream keys must lie in 0 .. 2**32 - 1")
    if len(keys) < BULK_KEYS:
        return [stream(seed, domain, *key) for key in keys]
    seed = int(seed) & _MASK64
    entropy = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy += [int(domain), *np.array(keys, dtype=np.uint64).T]
    words = _state_words(entropy)
    # registered here, so that importing asyncsa does not load numpy.random
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    # the loop makes enough tracked objects to start cyclic collections, and
    # they find nothing to free: 9900 keys took 20-23 against 28-31 ms with
    # the collector on (medians of 8, 2-core x86 host, numpy 2.4.6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]
    finally:
        if enabled:
            gc.enable()


def _state_words(entropy) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for each key,
    as a (keys, 4) array.  An entropy word is an int, the same for every
    key, or a ``uint64`` array with one 32-bit word per key; the hash is
    numpy's, every product cut to 32 bits."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for k in range(8):  # 32-bit state words, two to each little-endian uint64
        value = pool[k % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    pairs = [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]
    return np.stack(pairs, axis=1)


class _StateWords:
    """The state words of one key, handed to ``PCG64`` as its seed (an
    ``ISeedSequence``) once: ``PCG64`` keeps its seed object for life, so
    the words are dropped as they are handed over."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:  # what PCG64 asks for
            raise ValueError("hashed state words serve PCG64 only")
        words, self._words = self._words, None
        return words


def constant(value: np.ndarray):
    """A ``Rows`` fill that serves ``value`` in every row and draws nothing."""
    return lambda start, size: np.broadcast_to(value, (size, *value.shape))


class Rows:
    """The rows of a stream, read in order with ``take(size)``.

    ``fill(start, size)`` returns rows ``start .. start + size - 1``.  A
    block is drawn only when the current one is used up.  The fill policy:
    a block holds exactly the rows the ``take`` that draws it still lacks,
    so each block is read whole by one ``take``, and a run's streams are
    drawn one tick block at a time.  Only a stream whose draws depend on
    where it is cut (``CHUNK``), or whose blocks are capped in bytes, is
    given ``most``: its blocks hold ``most`` rows, cut at ``rows`` (the
    run's horizon), and at least one, for a caller may read past ``rows``.
    The spent block is released before ``fill`` runs.
    """

    def __init__(self, fill, rows: int = 0, most: int | None = None):
        self._fill = fill
        self._rows = rows
        self._most = most
        self._start = 0  # first row of the next block
        self._block = ()
        self._pos = 0  # first row of the block not read yet

    def take(self, size: int) -> np.ndarray:
        """The next ``size`` rows: a view of the current block, or a copy
        when they run past its end.  A copy holds no spent block: a
        block's unread rows are copied before the next block is drawn."""
        spent = []  # copies of the rows read from used-up blocks
        while True:
            block, pos = self._block, self._pos
            end = pos + size
            if end <= len(block):
                break
            if pos < len(block):
                spent.append(block[pos:].copy())
                size = end - len(block)
            block = self._block = ()  # release the spent block before fill allocates
            start = self._start
            rows = size if self._most is None else max(1, min(self._most, self._rows - start))
            self._block = self._fill(start, rows)
            self._start = start + rows
            self._pos = 0
        self._pos = end
        if spent:
            return np.concatenate((*spent, block[pos:end]))
        return block[pos:end]

    def next(self, tick: int | None = None) -> np.ndarray:
        """The next row, as a copy; ``tick`` is not used."""
        return self.take(1)[0].copy()
