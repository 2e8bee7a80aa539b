"""Seed-stream derivation.

Each stochastic ingredient of a run draws from its own generator, keyed by
the run seed plus a purpose tag (and, for delays, the ordered agent pair).
Changing one model in a config therefore never shifts the sample sequence
of another, and identical (config, seed) pairs replay bit-for-bit.

Every per-tick input of a run that does not depend on the iterate
(activation masks, delays, errors, noise) is read through ``Rows``, the
one stream cursor: rows come in blocks of at most ``CHUNK``, cut at the
run's horizon, served one row per tick.  A ``constant`` fill serves one
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
    """The rows of a stream, one per ``next()`` call.

    ``fill(start, size)`` returns rows ``start .. start + size - 1``.  A
    block is drawn only when the current one is used up, with ``size`` the
    smaller of ``CHUNK`` and the rows left before ``rows`` (the run's
    horizon), and at least one: a caller may read past ``rows``, one row
    per block.  The spent block is released before ``fill`` runs, and a
    block's last row is served as a copy: a caller holding only the latest
    row keeps no spent block alive across a refill.
    """

    def __init__(self, fill, rows: int):
        self._fill = fill
        self._rows = rows
        self._start = 0  # first row of the next block
        self._block = ()
        self._left = 0  # rows of the block not served yet

    def next(self, tick: int | None = None) -> np.ndarray:
        """The next row.  ``tick`` is not used (rows come in call order);
        it lets a row stream serve as a per-tick sampler."""
        left = self._left
        if not left:
            start = self._start
            left = max(1, min(CHUNK, self._rows - start))
            self._block = ()  # release the spent block before fill allocates
            self._block = self._fill(start, left)
            self._start = start + left
        self._left = left - 1
        return self._block[-1].copy() if left == 1 else self._block[-left]
