"""Seed-stream derivation.

Each stochastic ingredient of a run draws from its own generator, keyed by
the run seed plus a purpose tag (and, for delays, the ordered agent pair).
Changing one model in a config therefore never shifts the sample sequence
of another, and identical (config, seed) pairs replay bit-for-bit.

Every per-tick input of a run that does not depend on the iterate
(activation masks, delays, errors, noise) is read through ``Rows``, the
one stream cursor: rows are drawn in blocks of at most ``CHUNK`` (fewer
for wide delay matrices, see ``DELAY_BLOCK_BYTES``), cut at the run's
horizon, and read a run of rows at a time with ``take``.  How a
stream is read never changes its draws.  A ``constant`` fill serves one
value and draws nothing.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Most rows per drawn block.  Numpy gives the same draws however a stream is
# cut, except for the Euclidean norm-ball errors, which draw all of a block's
# normals before its radii: they always draw CHUNK rows of each and keep the
# first ones, so their bits depend on this value.
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


def constant(value: np.ndarray):
    """A ``Rows`` fill that serves ``value`` in every row and draws nothing."""
    return lambda start, size: np.broadcast_to(value, (size, *value.shape))


class Rows:
    """The rows of a stream, read in order with ``take(size)``.

    ``fill(start, size)`` returns rows ``start .. start + size - 1``.  A
    block is drawn only when the current one is used up, with ``size`` the
    smaller of ``most`` and the rows left before ``rows`` (the run's
    horizon), and at least one: a caller may read past ``rows``, one row
    per block.  The spent block is released before ``fill`` runs.
    """

    def __init__(self, fill, rows: int, most: int = CHUNK):
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
            rows = max(1, min(self._most, self._rows - start))
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
