"""Counter-based seed keys: the one place where a key becomes a generator.

Every random draw starts from a key, a tuple of non-negative integers, on
the generator ``np.random.default_rng(np.random.SeedSequence(key))``, so it
depends on its key alone, never on execution order (the keyed streams of
Salmon et al., SC 2011).  ``streams`` builds those generators for a batch of
keys at once, and ``derive_seed`` is the first state word of each key.

Key layouts (master: a driver's master seed; noise: ``NoiseModel.seed``;
shot: a shot seed) and what each one seeds:

    (master, SHOT, k)             shot seed of frequency index k
    (master, SUBSET)              subset seed of a scenario
    (master, SUBSET, i)           subset seed of training sequence i
    (master, SUBSET, m, rep)      subset seed of sweep column (m, rep)
    (master, RAMSEY, j)           shot seed of Ramsey window j
    (master, SEQUENCE, i)         pulses of training sequence i
    (master, i)                   shot master seed of training sequence i
    (noise, shot, DRIFT)          bias drift of a shot
    (noise, shot, COUNTS)         atom number and counts of a shot
    (noise, shot, RAMSEY_NOISE)   drift and shot noise of a Ramsey window
    (seed,)                       Fisher-Yates shuffle of one subset

SeedSequence pads a key shorter than its 4-word pool with zero words, so
(M, i) and (M, i, 0) are one key: ``tune_lambda``'s (M, 1) is (M, SUBSET, 0)
and its (M, 3) is (M, SEQUENCE, 0).  A new key layout must differ from the
others by more than trailing zeros.

A batch of _BLOCK_MIN_KEYS or more keys of these layouts, every entry below
2**32, is mixed in blocks of keys; any other batch is numpy's SeedSequence
one key at a time.  Block mixing costs about 41 us whatever the batch size
(50-60 us in ``streams``), SeedSequence 7-8 us a key (one thread, 2-core x86
host): they break even at 5-7 keys.  A seed of 2**32 or more costs more: 60
noisy shots take 1.8x as long, 2.7x when it is the noise seed.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

SHOT, SUBSET, RAMSEY, SEQUENCE = 0, 1, 2, 3  # tags under a master seed
DRIFT, COUNTS, RAMSEY_NOISE = 0, 1, 2  # tags under (noise, shot)

# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK_MIN_KEYS = 6  # smaller batches go key by key: see the module docstring
_WALK_SEED = np.random.SeedSequence(0)  # streams' walk sets every state: no OS entropy


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i = 0..count, as a column: the i-th hash
    xors with constant i and multiplies by constant i + 1."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# mixing round s hashes pool word s once for each other word, in word order,
# with hash constants 4 + 3s, 5 + 3s and 6 + 3s; word s itself takes a spare
# constant and is put back after the round
_ROUND = np.array([[4, 4, 5, 6], [7, 8, 8, 9], [10, 11, 12, 12], [13, 14, 15, 16]])
_ROUND_IN, _ROUND_OUT = _HASH_A[_ROUND], _HASH_A[_ROUND + 1]


def _hashmix(values, const_in, const_out):
    v = (values ^ const_in) * const_out
    return v ^ (v >> 16)


def _mix(x, y):
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ (r >> 16)


def _entry(values) -> np.ndarray:
    """A key entry as an integer array, exact for ints of any size (numpy
    makes a list mixing ints of 2**63 and more with smaller ones float64)."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        array = np.array(values, dtype=object)
        if not all(isinstance(v, (int, np.integer)) for v in array.flat):
            raise TypeError(f"seed keys must be non-negative integers, got {values!r}")
    if (array < 0).any():
        bad = array[array < 0].flat[0]
        raise ValueError(f"seed keys must be non-negative integers, got {bad}")
    return array


def seed_int(value, name: str) -> int:
    """``value`` as an int, or a ``TypeError`` naming the parameter ``name``:
    a float seed is refused, not read as its int."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name}: seed keys must be non-negative integers, "
                        f"got {value!r}") from None


def _batch(key):
    """``(keys, entries, shape)`` of a batch broadcasting to ``shape``:
    ``keys`` lists its keys in C order when numpy's SeedSequence serves it
    one key at a time (fewer than _BLOCK_MIN_KEYS keys, more than 4 entries
    or an entry of 2**32 or more), else None, and the block mixing takes
    ``entries``, the entries as integer arrays.  A batch of ints, at most
    one of them a short list, is read without array work."""
    columns = [entry if isinstance(entry, (list, tuple)) else [entry] for entry in key]
    lengths = tuple(len(column) for column, entry in zip(columns, key) if column is entry)
    if len(lengths) < 2 and sum(lengths) < _BLOCK_MIN_KEYS:
        try:
            ints = [[operator.index(v) for v in column] for column in columns]
        except TypeError:  # an array, or not an integer: read as arrays below
            pass
        else:
            if all(v >= 0 for column in ints for v in column):
                return list(itertools.product(*ints)), None, lengths
    entries = [_entry(entry) for entry in key]
    shape = np.broadcast(*entries).shape
    if (len(entries) > 4 or math.prod(shape) < _BLOCK_MIN_KEYS
            or any((entry > _MASK32).any() for entry in entries)):
        columns = (np.broadcast_to(entry, shape).ravel().tolist() for entry in entries)
        return list(zip(*columns)), None, shape
    return None, entries, shape


def _block_state(entries, shape, n_words: int) -> np.ndarray:
    """``_seed_state`` by block mixing: one entry in each word of the 4-word
    pool, zero padding a short key; the hash constants do not depend on the
    data, so each step is one operation on a block of words of every key."""
    words = np.zeros((4, *shape), dtype=np.uint32)
    for i, entry in enumerate(entries):
        words[i] = entry

    pool = _hashmix(words.reshape(4, -1), _HASH_A[:4], _HASH_A[1:5])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], _ROUND_IN[s], _ROUND_OUT[s]))
        mixed[s] = pool[s]
        pool = mixed
    b = _HASH_B[: n_words + 1]
    state = _hashmix(pool[np.arange(n_words) % 4], b[:-1], b[1:])
    return state.reshape((n_words,) + shape)


def _seed_state(key, n_words: int = 1) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words)``, n_words <= 8, for a
    batch of keys whose entries broadcast together, shape (n_words, *batch)."""
    keys, entries, shape = _batch(key)
    if keys is None:
        return _block_state(entries, shape, n_words)
    state = [np.random.SeedSequence(k).generate_state(n_words) for k in keys]
    return np.array(state, dtype=np.uint32).T.reshape((n_words, *shape))


def derive_seed(master_seed: int, *indices):
    """Deterministic child seed for a (master, counter...) key: an int, or a
    uint32 array with one seed per key when the counters are arrays."""
    seeds = _seed_state((master_seed, *indices))[0]
    return int(seeds) if seeds.ndim == 0 else seeds


def streams(*key):
    """Yield one ``Generator`` per key of a broadcast batch, in C order, each
    in the state of ``np.random.default_rng(np.random.SeedSequence(key))``.

    PCG64 takes its 128-bit initstate and initseq from ``generate_state(4,
    np.uint64)``: inc = (initseq << 1) | 1 and state = ((inc + initstate) M
    + inc) mod 2^128, M its multiplier.  Every key's (state, inc) is computed
    first; one Generator and one state dict, local to the call, then walk
    them: draw from each key's stream before taking the next.  A batch
    seeded key by key yields ``default_rng`` of each SeedSequence itself.
    """
    keys, entries, shape = _batch(key)
    if keys is not None:
        for k in keys:
            yield np.random.default_rng(np.random.SeedSequence(k))
        return
    words = _block_state(entries, shape, 8).reshape(8, -1).astype(np.uint64)
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in (words[0::2] | words[1::2] << 32).T.tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        states.append((((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    rng, pcg = np.random.Generator(np.random.PCG64(_WALK_SEED)), {}
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": pcg}
    for pcg["state"], pcg["inc"] in states:
        rng.bit_generator.state = state
        yield rng
