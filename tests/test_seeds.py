"""Counter-based seed keys: the exact batched SeedSequence/PCG64 streams.

``seeds._seed_state`` and ``seeds.streams`` recompute numpy's SeedSequence
mixing and PCG64 seeding for a batch of keys.  They are checked against numpy
itself, so a numpy that changes either algorithm fails here instead of
silently shifting every sampled value.
"""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from sparsemag import seeds
from sparsemag.seeds import derive_seed
from sparsemag.sensor import NoiseModel, readout_coefficient
from sparsemag.transform import random_subsample_masks

# values needing 1, 2 and 3 uint32 words
WIDE = (0, 2**32 - 1, 2**32, 2**64 + 1)


def _reference_words(key, n_words):
    return np.random.SeedSequence(key).generate_state(n_words)


def test_seed_state_matches_seed_sequence_in_every_position():
    keys = [key for n in (1, 2, 3) for key in itertools.product(WIDE, repeat=n)]
    for key in keys:
        np.testing.assert_array_equal(seeds._seed_state(key, 8), _reference_words(key, 8))
    # one batch of every layout, 2 to 9 words per key, one key at a time
    batch = np.array(list(itertools.product(WIDE, repeat=3)), dtype=object).T
    state = seeds._seed_state(tuple(batch), 8)
    for j, key in enumerate(batch.T.tolist()):
        np.testing.assert_array_equal(state[:, j], _reference_words(key, 8))


def test_seed_state_broadcasts_shot_seed_arrays():
    shot_seeds = np.array([0, 1, 7, 2**31, 2**32 - 1], dtype=np.uint32)
    for master in (0, 5, 2**32 - 1, 2**32, 2**64 + 1):
        for tag in (0, 1, 2):
            state = seeds._seed_state((master, shot_seeds, tag))
            assert state.shape == (1, shot_seeds.size)
            expected = [_reference_words((master, int(s), tag), 1)[0] for s in shot_seeds]
            np.testing.assert_array_equal(state[0], expected)
    # two array entries broadcast to a grid of keys
    grid = seeds._seed_state((3, np.arange(3)[:, None], np.arange(2)))
    assert grid.shape == (1, 3, 2)
    assert grid[0, 2, 1] == _reference_words((3, 2, 1), 1)[0]
    assert seeds._seed_state((np.array(4), 9)).shape == (1,)


def test_derive_seed_batch_equals_scalar_oracle():
    shot_seeds = derive_seed(0, 0, np.arange(1, 100))
    assert shot_seeds.dtype == np.uint32
    assert shot_seeds.tolist() == [oracles.derive_seed(0, 0, k) for k in range(1, 100)]
    assert derive_seed(2**40, 3) == oracles.derive_seed(2**40, 3)


def test_streams_match_pcg64_states_and_first_draws():
    shot_seeds = np.array([0, 3, 2**31, 2**32 - 1], dtype=np.uint32)
    probs = [0.2, 0.3, 0.5]
    for noise_seed in (0, 2**32, 2**64 + 1):
        for tag in (0, 1, 2):
            streams = seeds.streams(noise_seed, shot_seeds, tag)
            for seed, rng in zip(shot_seeds, streams):
                seq = np.random.SeedSequence((noise_seed, int(seed), tag))
                assert rng.bit_generator.state == np.random.PCG64(seq).state
                reference = np.random.default_rng(seq)
                assert rng.normal(0.0, 200.0) == reference.normal(0.0, 200.0)
                assert rng.poisson(1000.0) == reference.poisson(1000.0)
                np.testing.assert_array_equal(
                    rng.multinomial(1000, probs), reference.multinomial(1000, probs)
                )


def test_one_entry_streams_are_default_rng_of_an_int():
    # the mask sampler's keys are (seed,), which default_rng(seed) also builds
    mask_seeds = [*range(250), 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 + 5]
    for seed, rng in zip(mask_seeds, seeds.streams(mask_seeds)):
        reference = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            rng.integers(np.arange(40), 99), reference.integers(np.arange(40), 99)
        )


def test_streams_keep_mixed_wide_ints_exact():
    # np.asarray makes this pair float64; its keys must stay exact
    pair = (4294967296, 9223372036854775808)
    state = seeds._seed_state((pair,), 8)
    for j, seed in enumerate(pair):
        np.testing.assert_array_equal(state[:, j], _reference_words(seed, 8))
    masks = random_subsample_masks(100, [60, 60], pair)
    for mask, seed in zip(masks, pair):
        assert tuple(np.flatnonzero(mask) + 1) == oracles.random_subsample(100, 60, seed)
    assert seeds._seed_state(([],)).shape == (1, 0)


def _batched(key):
    """The key repeated into a batch at the break-even: the block mixing
    serves it when its entries are below 2**32 and at most 4, SeedSequence
    per key else."""
    return (np.array([key[0]] * seeds._BLOCK_MIN_KEYS, dtype=object), *key[1:])


ONE_KEYS = [(123, seeds.SUBSET), (123, seeds.SUBSET, 7), (2**40, 5), (0,), (2**64 + 1,),
            (2**32 - 1, seeds.SEQUENCE, 2**32), (5, 2**64 + 1, 2**32, 0),
            (2**32 - 1, 1, 2, 3), (7, 1, 2, 3, 4)]


@pytest.mark.parametrize("key", ONE_KEYS)
def test_one_key_equals_the_batched_path_and_seed_sequence(key, monkeypatch):
    batched = seeds._seed_state(_batched(key), 8)[:, 0]
    np.testing.assert_array_equal(batched, _reference_words(key, 8))
    batched_state = next(seeds.streams(*_batched(key))).bit_generator.state
    # numpy's SeedSequence serves the key: the batched mixing is not called
    monkeypatch.setattr(seeds, "_mix", None)
    state = seeds._seed_state(key, 8)
    assert state.shape == (8,) and state.dtype == np.uint32
    np.testing.assert_array_equal(state, batched)
    assert derive_seed(*key) == int(batched[0]) == oracles.derive_seed(*key)
    assert type(derive_seed(*key)) is int
    as_lists = seeds._seed_state(([key[0]], *key[1:]), 8)
    assert as_lists.shape == (8, 1)
    np.testing.assert_array_equal(as_lists[:, 0], batched)
    (rng,) = seeds.streams(*key)
    assert rng.bit_generator.state == batched_state
    reference = np.random.default_rng(np.random.SeedSequence(key))
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(rng.integers(0, 2**62, 5), reference.integers(0, 2**62, 5))
    # numpy integers are read as the ints they hold
    as_numpy = tuple(np.uint64(k) if k < 2**64 else k for k in key)
    np.testing.assert_array_equal(seeds._seed_state(as_numpy, 8), batched)


@pytest.fixture
def mix_calls(monkeypatch):
    """The shapes ``seeds._mix`` is called on: empty unless the block
    mixing served a batch."""
    calls, mix = [], seeds._mix

    def spy(x, y):
        calls.append(np.shape(x))
        return mix(x, y)

    monkeypatch.setattr(seeds, "_mix", spy)
    return calls


def _keys(batch):
    """Every key of a broadcast batch, in C order, as a tuple of ints."""
    entries = np.broadcast_arrays(*(np.array(entry, dtype=object) for entry in batch))
    return list(zip(*(entry.ravel().tolist() for entry in entries)))


_SHOT_SEEDS = derive_seed(7, seeds.SHOT, np.arange(1, 100))
_M_OF, _REP_OF = np.repeat([10, 60, 99], 4), np.tile(np.arange(4), 3)
# the layouts the drivers make: seeds below 2**32, at most 4 entries, many keys
DRIVER_BATCHES = {
    "shot seeds": (7, seeds.SHOT, np.arange(1, 100)),
    "drift and count streams": (3, _SHOT_SEEDS, [[seeds.DRIFT], [seeds.COUNTS]]),
    "sweep subsets": (2**32 - 1, seeds.SUBSET, _M_OF, _REP_OF),
    "training subsets": (11, seeds.SUBSET, np.arange(1, 9)),
    "ramsey windows": (19, seeds.RAMSEY, np.arange(99)),
    "ramsey noise": (0, _SHOT_SEEDS, seeds.RAMSEY_NOISE),
    "mask shuffles": (_SHOT_SEEDS[:8],),
    "shot seeds at the break-even": (7, seeds.SHOT, np.arange(1, 1 + seeds._BLOCK_MIN_KEYS)),
    "a list at the break-even": (3, list(range(seeds._BLOCK_MIN_KEYS)), seeds.COUNTS),
}
# SeedSequence one key at a time
PER_KEY_BATCHES = {
    "lone key": (7, seeds.SUBSET),
    "lone key with a list entry": (7, seeds.SEQUENCE, [3]),
    "wide master": (2**32, seeds.SHOT, np.arange(1, 100)),
    "wide noise seed": (2**40, _SHOT_SEEDS[:5], [[seeds.DRIFT], [seeds.COUNTS]]),
    "mixed widths": ([1, 2**40, 2**64 + 5],),
    "five entries": (1, 2, 3, 4, np.arange(3)),
    "five narrow entries": (np.array([0, 1]), 1, 2, 3, 4),
    # fewer keys than the break-even
    "unitary shot": (3, int(_SHOT_SEEDS[0]), [seeds.DRIFT, seeds.COUNTS]),
    "three keys as an array": (5, seeds.SHOT, np.arange(1, 4)),
    "a two-by-two grid": (3, np.arange(2)[:, None], np.arange(2)),
    "one below the break-even": (7, seeds.SHOT, np.arange(1, seeds._BLOCK_MIN_KEYS)),
    "a list below the break-even": (3, list(range(seeds._BLOCK_MIN_KEYS - 1)), seeds.COUNTS),
    "a short column of lists": (3, _SHOT_SEEDS[:2], [[seeds.DRIFT], [seeds.COUNTS]]),
}


def _check_against_numpy(batch):
    """_seed_state, derive_seed and streams of a batch against numpy, key by key."""
    keys = _keys(batch)
    state = seeds._seed_state(batch, 8).reshape(8, -1)
    for j, key in enumerate(keys):
        np.testing.assert_array_equal(state[:, j], _reference_words(key, 8))
    np.testing.assert_array_equal(np.ravel(derive_seed(*batch)), state[0])
    for key, rng in zip(keys, seeds.streams(*batch), strict=True):
        reference = np.random.default_rng(np.random.SeedSequence(key))
        assert rng.bit_generator.state == reference.bit_generator.state
    return keys


@pytest.mark.parametrize("name", DRIVER_BATCHES)
def test_driver_batches_take_the_block_mixing(name, mix_calls):
    assert len(_check_against_numpy(DRIVER_BATCHES[name])) >= 2
    assert mix_calls


@pytest.mark.parametrize("name", PER_KEY_BATCHES)
def test_other_batches_take_seed_sequence_per_key(name, mix_calls):
    _check_against_numpy(PER_KEY_BATCHES[name])
    assert not mix_calls


def test_one_row_mask_equals_its_row_in_a_batch(monkeypatch):
    for seed in (0, 7, 2**32, 2**63, 2**64 + 5):
        pair = random_subsample_masks(100, [60, 60], [seed, 1])
        monkeypatch.setattr(seeds, "_mix", None)
        np.testing.assert_array_equal(random_subsample_masks(100, [60], [seed])[0], pair[0])
        monkeypatch.undo()


def test_short_keys_are_padded_with_zero_words():
    # SeedSequence pads a key to its 4-word pool, so these keys coincide
    for short in ((123, 1), (123, 3), (2**32 + 7, 5)):
        np.testing.assert_array_equal(
            seeds._seed_state(short, 8), seeds._seed_state((*short, 0), 8)
        )
        np.testing.assert_array_equal(seeds._seed_state(short, 8), _reference_words(short, 8))
    assert derive_seed(123, 1) == derive_seed(123, seeds.SUBSET, 0) == 447839439


def test_tags_keep_their_values():
    # the tags are part of every key, so of every sampled byte
    assert (seeds.SHOT, seeds.SUBSET, seeds.RAMSEY, seeds.SEQUENCE) == (0, 1, 2, 3)
    assert (seeds.DRIFT, seeds.COUNTS, seeds.RAMSEY_NOISE) == (0, 1, 2)


def test_seed_helpers_reject_negative_and_non_integer_seeds():
    message = "seed keys must be non-negative integers, got "
    for key, bad in (((-1, 0), -1), ((0, np.array([3, -1]), 1), -1), ((2**64, -(2**40)), -(2**40))):
        with pytest.raises(ValueError, match=re.escape(f"{message}{bad}")):
            seeds._seed_state(key)
    with pytest.raises(ValueError, match=f"{message}-1"):
        derive_seed(-1, 0, 5)
    for key, bad in (((5, -3), -3), ((5, [-3]), -3), ((2**64, np.int64(-2)), -2)):
        with pytest.raises(ValueError, match=re.escape(f"{message}{bad}")):
            derive_seed(*key)
        with pytest.raises(ValueError, match=re.escape(f"{message}{bad}")):
            next(seeds.streams(*key))
    with pytest.raises(ValueError, match=f"{message}-1"):
        readout_coefficient(0.1, 5e-3, NoiseModel(seed=-1), 0)
    with pytest.raises(ValueError, match=f"{message}-7"):
        random_subsample_masks(100, [5, 5], [3, -7])
    for key in ((0, 1.5), (0, [2, 1.5]), (0, [1.5]), (np.float64(3.0), 1)):
        with pytest.raises(TypeError):
            seeds._seed_state(key)
        with pytest.raises(TypeError):
            next(seeds.streams(*key))


def test_only_the_seed_module_builds_generators():
    package = Path(seeds.__file__).parent
    private_use = re.compile(r"\b(grids|transform|seeds|sensor|recovery|detection|experiments|cli)\._\w")
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name != "seeds.py":
            for name in ("default_rng", "SeedSequence", "np.random"):
                assert name not in text, f"{path.name} uses {name}; draw from seeds.streams"
        assert not private_use.search(text), f"{path.name} uses another module's private name"
