import gc

import numpy as np
import pytest

from asyncsa._rng import BULK_KEYS, DOMAIN_DELAY, _state_words, stream, streams

_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, -5]


@pytest.mark.parametrize("words", [3, 4, 5, 6])
def test_bulk_state_words_are_seed_sequence_state_words(words):
    # 250 random entropy tuples of each length, 1000 in all; in the second
    # half the first word is an int that every key shares, as a seed is
    rng = np.random.default_rng(words)
    entropy = rng.integers(0, 2**32, size=(250, words), dtype=np.uint64)
    entropy[125:, 0] = entropy[125, 0]
    got = np.concatenate([_state_words(list(entropy[:125].T)),
                          _state_words([int(entropy[125, 0]), *entropy[125:, 1:].T])])
    want = [np.random.SeedSequence(tuple(int(w) for w in row)).generate_state(4, np.uint64)
            for row in entropy]
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("keys", [
    [(j, i) for j in range(4) for i in range(3) if i != j][:BULK_KEYS - 1],
    [(j, i) for j in range(4) for i in range(4) if i != j],
    [(k,) for k in range(BULK_KEYS - 1)],
    [(k,) for k in (0, 1, 7, 2**16, 2**31, 2**32 - 1, *range(40, 60))],
], ids=["pairs-below", "pairs-bulk", "ints-below", "ints-bulk"])
def test_streams_are_the_streams_of_their_keys(seed, keys):
    got = streams(seed, DOMAIN_DELAY, keys)
    bulk = len(keys) >= BULK_KEYS
    assert len(got) == len(keys)
    for rng, key in zip(got, keys):
        assert isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence) != bulk
        if bulk:  # a seeded stream keeps its seed object but not the words
            assert rng.bit_generator.seed_seq._words is None
        want = stream(seed, DOMAIN_DELAY, *key)
        assert rng.bit_generator.state == want.bit_generator.state, key
        assert np.array_equal(rng.random(16), want.random(16)), key


@pytest.mark.parametrize("count", [1, BULK_KEYS])
@pytest.mark.parametrize("bad", [2**32, -1])
def test_stream_keys_out_of_range_raise(count, bad):
    # SeedSequence would read a key of 2**32 or more as two words
    with pytest.raises(ValueError, match="stream keys"):
        streams(0, DOMAIN_DELAY, [(0, k) for k in range(count - 1)] + [(0, bad)])


def test_no_keys_build_no_streams():
    assert streams(0, DOMAIN_DELAY, []) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_seeding_leaves_the_collector_as_it_found_it(enabled):
    # bulk seeding pauses cyclic collection while it builds the streams
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        streams(0, DOMAIN_DELAY, [(k,) for k in range(BULK_KEYS)])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
