"""DST-I sampler, subsampling and the sine-series interpolant."""

import json

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

import oracles
from sparsemag import transform
from sparsemag.grids import PulseSpec, TimeGrid, Waveform, synth_waveform
from sparsemag.sensor import NoiseModel, ramsey_sample
from sparsemag.transform import (
    MeasurementVector,
    SineInterpolant,
    SubsampleSet,
    apply_dst,
    apply_inverse_dst,
    dst_iii,
    dst_matrix,
    measurements_from_csv,
    measurements_to_csv,
    random_subsample,
    random_subsample_masks,
    sine_interpolant,
    subsample_from_json,
    subsample_rows,
)


def test_dst_matrix_smallest_case():
    assert dst_matrix(2) == pytest.approx(np.array([[0.5]]))


def test_dst_matrix_entry_values():
    matrix = dst_matrix(100)
    # entry (k=50, j=1): sin(pi/2)/100
    assert matrix[49, 0] == pytest.approx(0.01, abs=1e-15)
    first_row_n4 = dst_matrix(4)[0]
    np.testing.assert_allclose(
        first_row_n4, np.array([np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)]) / 4.0
    )


@pytest.mark.parametrize("n_grid", [2, 4, 16, 100, 1000])
def test_dst_matrix_shared_read_only_and_exact(n_grid):
    matrix = dst_matrix(n_grid)
    assert dst_matrix(n_grid) is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0
    idx = np.arange(1, n_grid)
    uncached = np.sin(np.pi * np.outer(idx, idx) / n_grid) / n_grid
    np.testing.assert_array_equal(matrix, uncached)


def test_subsample_rows_of_shared_matrix_is_writeable_copy():
    matrix = dst_matrix(100)
    rows = subsample_rows(matrix, SubsampleSet(100, (1, 50, 99)))
    assert rows.flags.writeable
    rows[:] = 0.0
    assert matrix[49, 0] == pytest.approx(0.01, abs=1e-15)


@pytest.mark.parametrize("n_grid", [1, 0, -5])
def test_dst_matrix_rejects_small_grid(n_grid):
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(ValueError, match="n_grid"):
            dst_matrix(n_grid)


@pytest.mark.parametrize("n_grid", [2, 4, 16, 100])
def test_dst_orthogonality_and_singular_values(n_grid):
    a = dst_matrix(n_grid)
    gram = a.T @ a
    assert np.max(np.abs(gram - np.eye(n_grid - 1) / (2 * n_grid))) < 1e-12
    singular = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(singular, 1.0 / np.sqrt(2 * n_grid), atol=1e-10)


def test_apply_dst_zero_waveform():
    tgrid = TimeGrid(16, 1e-3)
    matrix = dst_matrix(16)
    assert np.all(apply_dst(matrix, Waveform(np.zeros(15), tgrid)) == 0.0)


def test_apply_dst_pure_row_input():
    n = 100
    tgrid = TimeGrid(n, 50e-6)
    j = np.arange(1, n)
    waveform = Waveform(np.sin(np.pi * 5 * j / n), tgrid)
    coefs = apply_dst(dst_matrix(n), waveform)
    assert coefs[4] == pytest.approx(0.5, abs=1e-12)
    others = np.delete(coefs, 4)
    assert np.max(np.abs(others)) < 1e-12


def test_apply_dst_matches_brute_force_on_pulse():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    coefs = apply_dst(dst_matrix(100), waveform)
    n = 100
    brute = np.array(
        [
            sum(
                np.sin(np.pi * k * j / n) * waveform.samples[j - 1] / n
                for j in range(1, n)
            )
            for k in range(1, n)
        ]
    )
    np.testing.assert_allclose(coefs, brute, atol=1e-12)


def test_apply_dst_equals_riemann_sum_form():
    # m_k = (1/T) sum_j sin(2 pi k df j dt) x_j dt with df dt = 1/(2N)
    tgrid = TimeGrid(100, 50e-6)
    rng = np.random.default_rng(3)
    waveform = Waveform(rng.normal(size=99), tgrid)
    coefs = apply_dst(dst_matrix(100), waveform)
    riemann = np.array(
        [
            np.sum(
                np.sin(2.0 * np.pi * k * tgrid.df * tgrid.times) * waveform.samples
            )
            * tgrid.dt
            / tgrid.duration
            for k in range(1, 100)
        ]
    )
    np.testing.assert_allclose(coefs, riemann, atol=1e-12)


def test_apply_dst_grid_mismatch():
    tgrid = TimeGrid(16, 1e-3)
    with pytest.raises(ValueError):
        apply_dst(dst_matrix(100), Waveform(np.zeros(15), tgrid))


def test_inverse_dst_round_trip():
    tgrid = TimeGrid(100, 50e-6)
    matrix = dst_matrix(100)
    rng = np.random.default_rng(11)
    waveform = Waveform(rng.normal(size=99), tgrid)
    recovered = apply_inverse_dst(matrix, apply_dst(matrix, waveform), tgrid)
    assert np.max(np.abs(recovered.samples - waveform.samples)) < 1e-12


def test_inverse_dst_zero_and_single_coefficient():
    tgrid = TimeGrid(100, 50e-6)
    matrix = dst_matrix(100)
    assert np.all(apply_inverse_dst(matrix, np.zeros(99), tgrid).samples == 0.0)
    m = np.zeros(99)
    m[6] = 1.0  # k = 7
    samples = apply_inverse_dst(matrix, m, tgrid).samples
    j = np.arange(1, 100)
    np.testing.assert_allclose(samples, 2.0 * np.sin(np.pi * 7 * j / 100), atol=1e-12)


def test_inverse_dst_dimension_checks():
    tgrid = TimeGrid(100, 50e-6)
    with pytest.raises(ValueError):
        apply_inverse_dst(dst_matrix(100), np.zeros(60), tgrid)


@pytest.mark.parametrize("n_grid,value", [(100, 1 / np.sqrt(200)), (2, 0.5), (4, 1 / np.sqrt(8))])
def test_operator_norm_bound_values(n_grid, value):
    # the engine's step 0.9 / (2 sigma_max^2) rests on sigma_max = 1/sqrt(2N)
    full_norm = np.linalg.norm(dst_matrix(n_grid), ord=2)
    assert full_norm == pytest.approx(value, abs=1e-12)


def test_subsampled_operator_norm_within_bound():
    matrix = dst_matrix(100)
    bound = 1.0 / np.sqrt(200.0)
    for seed in range(10):
        subset = random_subsample(100, 37, seed)
        operator = subsample_rows(matrix, subset)
        assert np.linalg.norm(operator, ord=2) <= bound + 1e-12


def test_random_subsample_full_and_deterministic():
    assert random_subsample(100, 99, 5).indices == tuple(range(1, 100))
    assert random_subsample(100, 60, 7).indices == random_subsample(100, 60, 7).indices
    with pytest.raises(ValueError):
        random_subsample(100, 0, 0)
    with pytest.raises(ValueError):
        random_subsample(100, 100, 0)


def _reference_subsample(n_grid, m, seed):
    """The subset draw as first written: one ``rng.integers`` call per step
    of the partial Fisher-Yates shuffle."""
    rng = np.random.default_rng(seed)
    pool = np.arange(1, n_grid)
    for i in range(m):
        j = int(rng.integers(i, pool.size))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(int(i) for i in pool[:m]))


def test_random_subsample_matches_scalar_draws():
    cases = 0
    for n_grid in (3, 50, 100, 1000):
        for m in sorted({1, 2, n_grid // 3, n_grid // 2, n_grid - 2, n_grid - 1} - {0}):
            for seed in range(25):
                assert random_subsample(n_grid, m, seed).indices == (
                    _reference_subsample(n_grid, m, seed)
                ), (n_grid, m, seed)
                cases += 1
    assert cases == 25 * (2 + 6 + 6 + 6)


@st.composite
def _subset_draws(draw):
    """N in {2, 3, 100} and a batch of (m, seed) rows, m often 1 or N - 1,
    seeds often at or past 2**32."""
    n_grid = draw(st.sampled_from([2, 3, 100]))
    m = st.one_of(st.sampled_from([1, n_grid - 1]), st.integers(1, n_grid - 1))
    seed = st.one_of(st.integers(2**32, 2**64), st.integers(0, 2**32 - 1))
    rows = draw(st.lists(st.tuples(m, seed), min_size=1, max_size=6))
    return n_grid, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_subset_draws())
def test_random_subsample_masks_match_oracle(draws):
    n_grid, rows = draws
    ms, seeds = zip(*rows)
    masks = random_subsample_masks(n_grid, ms, seeds)
    assert masks.shape == (len(rows), n_grid - 1) and masks.dtype == bool
    for mask, m, seed in zip(masks, ms, seeds):
        expected = oracles.random_subsample(n_grid, m, seed)
        assert tuple((np.flatnonzero(mask) + 1).tolist()) == expected
        assert random_subsample(n_grid, m, seed).indices == expected


def test_a_rejected_draw_redraws_its_row(monkeypatch):
    # at N = 30001, m = 20000 the stream of seed 9 holds a draw that numpy's
    # Lemire rule rejects, at step i = 7286: its low product word lies below
    # (2^32 - s) mod s, s = N - 1 - i
    rng = np.random.default_rng(np.random.SeedSequence([9]))
    words = rng.bit_generator.random_raw(10000)
    u = np.column_stack((words & 0xFFFFFFFF, words >> 32)).ravel()[:20000]
    span = 30000 - np.arange(20000, dtype=np.uint64)
    rejected = np.flatnonzero((u * span & 0xFFFFFFFF) < (2**32 - span) % span)
    assert rejected[0] == 7286

    keys = []

    def spy(*key):  # records a batch once a generator is drawn from it
        keys.append([list(entry) for entry in key])
        yield from transform_streams(*key)

    transform_streams = transform.streams
    monkeypatch.setattr(transform, "streams", spy)
    masks = random_subsample_masks(30001, [60, 20000, 5], [3, 9, 4])
    assert keys == [[[3, 9, 4]], [[9]]]  # one batch, then the rejected row again
    for mask, m, seed in zip(masks, (60, 20000, 5), (3, 9, 4)):
        assert tuple((np.flatnonzero(mask) + 1).tolist()) == oracles.random_subsample(30001, m, seed)
    keys.clear()
    random_subsample_masks(30001, [60, 5], [3, 4])
    assert keys == [[[3, 4]]]


def test_random_subsample_masks_edges():
    assert random_subsample_masks(100, [], []).shape == (0, 99)
    for m in (0, 100):
        with pytest.raises(ValueError, match="m must lie in 1..99"):
            random_subsample_masks(100, [5, m], [1, 2])
    for ms in ([5], [5, 6, 7]):
        with pytest.raises(ValueError):  # one m per seed
            random_subsample_masks(100, ms, [1, 2])
    indices = random_subsample(100, 60, 7).indices
    assert all(type(i) is int for i in indices)  # JSON-serialisable
    # a numpy integer N must not turn the word arithmetic into floats
    np.testing.assert_array_equal(random_subsample_masks(np.int64(100), [60, 99], [7, 8]),
                                  random_subsample_masks(100, [60, 99], [7, 8]))


def test_random_subsample_uniform_inclusion():
    counts = np.zeros(99)
    trials = 200
    for seed in range(trials):
        idx = np.asarray(random_subsample(100, 60, seed).indices) - 1
        counts[idx] += 1
    p = 60 / 99
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) < 3.0 * sigma + 1e-9)


def test_subsample_rows_extraction():
    matrix = dst_matrix(100)
    full = SubsampleSet(100, tuple(range(1, 100)))
    np.testing.assert_array_equal(subsample_rows(matrix, full), matrix)
    single = subsample_rows(matrix, SubsampleSet(100, (1,)))
    j = np.arange(1, 100)
    np.testing.assert_allclose(single[0], np.sin(np.pi * j / 100) / 100)


def test_subsample_restriction_consistency():
    tgrid = TimeGrid(100, 50e-6)
    matrix = dst_matrix(100)
    rng = np.random.default_rng(2)
    waveform = Waveform(rng.normal(size=99), tgrid)
    subset = random_subsample(100, 60, 9)
    full = apply_dst(matrix, waveform)
    restricted = subsample_rows(matrix, subset) @ waveform.samples
    # BLAS accumulates the full-matrix product in a different order, so the
    # agreement is to rounding, not bit-exact
    np.testing.assert_allclose(
        full[np.asarray(subset.indices) - 1], restricted, atol=1e-15
    )


def test_subsample_set_validation():
    with pytest.raises(ValueError):
        SubsampleSet(100, (0, 3))
    with pytest.raises(ValueError):
        SubsampleSet(100, (3, 3))
    with pytest.raises(ValueError):
        SubsampleSet(100, (5, 3))
    with pytest.raises(ValueError):
        SubsampleSet(100, (1, 100))


def test_sine_interpolant_passes_through_samples():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    np.testing.assert_allclose(signal(tgrid.times), waveform.samples, atol=1e-9)
    # and vanishes at the grid endpoints t = 0 and t = T
    assert abs(signal(0.0)) < 1e-9
    assert abs(signal(tgrid.duration)) < 1e-9


def test_sine_interpolant_continuous_coefficients():
    # the continuous sine coefficient (1/T) int sin(2 pi k df t) B(t) dt of the
    # interpolant equals the DST output m_k exactly
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    coefs = apply_dst(dst_matrix(100), waveform)
    t = np.linspace(0.0, tgrid.duration, 20001)
    for k in (1, 7, 21, 60):
        integral = simpson(np.sin(2.0 * np.pi * k * tgrid.df * t) * signal(t), x=t)
        assert integral / tgrid.duration == pytest.approx(coefs[k - 1], abs=1e-8)


def _direct_sum(coefs, duration, t):
    """The interpolant as first evaluated: 2 sin(outer(t, w)) @ m."""
    omega = np.pi * np.arange(1, coefs.size + 1) / duration
    return 2.0 * np.sin(np.multiply.outer(t, omega)) @ coefs


@pytest.mark.parametrize("n_grid", [2, 7, 100])
def test_at_midpoints_matches_direct_sum(n_grid):
    # every step count, coarser than the grid (aliased k fold onto 1..n) or finer
    tgrid = TimeGrid(n_grid, 50e-6)
    waveform = Waveform(np.random.default_rng(n_grid).normal(size=n_grid - 1), tgrid)
    signal = sine_interpolant(waveform)
    for n_steps in (1, 2, 3, n_grid // 2 + 1, n_grid - 2, n_grid - 1, n_grid, n_grid + 1, 2 * n_grid + 3, 5000):
        if n_steps < 1:
            continue
        t = (np.arange(n_steps) + 0.5) * tgrid.duration / n_steps
        expected = _direct_sum(signal.coefs, tgrid.duration, t)
        np.testing.assert_allclose(
            signal.at_midpoints(n_steps), expected,
            rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(expected))),
        )
        np.testing.assert_array_equal(signal(t), expected)


def test_window_mean_shares_sinc_rows_bit_for_bit():
    # one sinc row per distinct width, gathered, is one row per window
    tgrid = TimeGrid(100, 50e-6)
    signal = sine_interpolant(synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)]))
    centres = np.concatenate([tgrid.times, [0.0, 10e-6, 4.99e-3, 5e-3]])  # clipped ends too
    for window in (60e-6, 333e-6):
        lo = np.clip(centres - window / 2.0, 0.0, tgrid.duration)
        hi = np.clip(centres + window / 2.0, 0.0, tgrid.duration)
        for windows in ((lo, hi), (lo[:, None], hi[:, None]), (lo[5], hi[5])):
            np.testing.assert_array_equal(
                signal.window_mean(*windows), oracles.window_mean(signal, *windows)
            )


def _clipped_windows(centres, window, duration):
    """Ramsey window edges: each centre +- window / 2, clipped to [0, T]."""
    centres = np.asarray(centres, dtype=float)
    return (np.clip(centres - window / 2.0, 0.0, duration),
            np.clip(centres + window / 2.0, 0.0, duration))


@pytest.mark.parametrize("n_grid", [20, 100, 257])
def test_cold_and_warm_window_means_give_the_same_bytes(n_grid):
    tgrid = TimeGrid(n_grid, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 0.3e-3)])
    signal, duration = sine_interpolant(waveform), tgrid.duration
    noise = NoiseModel(200.0, 1000.0, seed=n_grid)
    edge_centres = np.array([0.0, 10e-6, duration - 10e-6, duration])  # clipped windows
    grid_2x3 = tgrid.times[[[1, 5, 9], [2, 11, 17]]]
    for centres in (tgrid.times, edge_centres, float(tgrid.times[7]), grid_2x3):
        lo, hi = _clipped_windows(centres, 60e-6, duration)
        transform._window_operator.cache_clear()
        cold = signal.window_mean(lo, hi)
        warm = signal.window_mean(lo, hi)
        assert cold.shape == warm.shape == np.shape(centres)
        assert cold.tobytes() == warm.tobytes()
        np.testing.assert_array_equal(warm, oracles.window_mean(signal, lo, hi))
        seeds = np.arange(np.size(centres)).reshape(np.shape(centres))
        for model in (None, noise):
            transform._window_operator.cache_clear()
            cold = np.asarray(ramsey_sample(waveform, centres, 60e-6, model, seeds))
            warm = np.asarray(ramsey_sample(waveform, centres, 60e-6, model, seeds))
            assert cold.shape == np.shape(centres) and cold.tobytes() == warm.tobytes()


def test_near_miss_window_keys_recompute():
    # the operator is keyed on the edges' bytes, not on their shape alone
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    lo, hi = _clipped_windows(tgrid.times, 60e-6, tgrid.duration)
    moved_lo, moved_hi = lo.copy(), hi.copy()
    moved_lo[37], moved_hi[37] = np.nextafter(lo[37], 1.0), np.nextafter(hi[37], 1.0)
    near_misses = [
        (signal, *_clipped_windows(tgrid.times, 61e-6, tgrid.duration)),  # another window
        (SineInterpolant(signal.coefs, 100 * 51e-6), lo, hi),  # another dt
        (SineInterpolant(signal.coefs[:-1], tgrid.duration), lo, hi),  # another N
        (signal, moved_lo, moved_hi),  # a centre moved by one ulp
        (signal, np.where(lo == 0.0, -0.0, lo), hi),  # a -0.0 edge
        (signal, np.array(-0.0), np.array(-0.0)),  # an empty window at -0.0
    ]
    for other, near_lo, near_hi in near_misses:
        transform._window_operator.cache_clear()
        cold = other.window_mean(near_lo, near_hi)
        transform._window_operator.cache_clear()
        signal.window_mean(lo, hi)
        assert other.window_mean(near_lo, near_hi).tobytes() == cold.tobytes()
    # a -0.0 centre clips to the +0.0 centre's window edges
    for centre in (0.0, -0.0):
        transform._window_operator.cache_clear()
        cold = ramsey_sample(waveform, centre, 60e-6, None)
        ramsey_sample(waveform, -centre, 60e-6, None)
        assert ramsey_sample(waveform, centre, 60e-6, None) == cold
        assert np.signbit(cold) == np.signbit(ramsey_sample(waveform, centre, 60e-6, None))


def test_the_shared_window_operator_refuses_writes():
    tgrid = TimeGrid(100, 50e-6)
    signal = sine_interpolant(synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)]))
    lo, hi = _clipped_windows(tgrid.times, 60e-6, tgrid.duration)
    means = signal.window_mean(lo, hi)
    window = transform._window_operator(
        signal.coefs.size, signal.duration, lo.shape, hi.shape, lo.tobytes(), hi.tobytes()
    )
    assert window.shape == (99, 99) and not window.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        window[0, 0] = 1.0
    assert means.flags.writeable  # the means themselves are the caller's


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 203, 2475, 5000])
def test_dst_iii_matches_scipy(n):
    x = np.random.default_rng(n).normal(size=n)
    reference = scipy.fft.dst(x, type=3)
    np.testing.assert_allclose(dst_iii(x), reference, rtol=0, atol=2e-15 * np.max(np.abs(reference)))


def test_window_mean_is_exact_integral():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    lo = np.array([0.0, 1.0e-3, 1.07e-3, 4.97e-3])
    hi = np.array([5.0e-3, 1.06e-3, 1.2e-3, 5.0e-3])
    means = signal.window_mean(lo, hi)
    assert means.shape == (4,)
    for a, b, value in zip(lo, hi, means):
        t = np.linspace(a, b, 40001)
        assert value == pytest.approx(simpson(signal(t), x=t) / (b - a), abs=1e-9)
    # the mean over the whole of [0, T] is sum_k 4 m_k / (w_k T) over odd k
    coefs = signal.coefs
    k = np.arange(1, 100)
    whole = np.sum(np.where(k % 2, 4.0 * coefs / (np.pi * k), 0.0))
    assert means[0] == pytest.approx(whole, rel=1e-12)


def test_measurement_vector_rejects_non_finite():
    subset = random_subsample(100, 5, 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementVector([0.0, 1.0, bad, 2.0, 3.0], subset)


def test_subsample_json_round_trip(tmp_path):
    subset = random_subsample(100, 60, 7)
    path = tmp_path / "subset.json"
    path.write_text(json.dumps({"n_grid": 100, "indices": list(subset.indices)}))
    assert subsample_from_json(path) == subset


def test_measurements_csv_round_trip(tmp_path):
    tgrid = TimeGrid(100, 50e-6)
    subset = random_subsample(100, 12, 4)
    measured = MeasurementVector(np.linspace(-2.0, 2.0, 12), subset)
    path = tmp_path / "m.csv"
    measurements_to_csv(measured, tgrid, path)
    loaded = measurements_from_csv(path, tgrid)
    assert loaded.subsample == subset
    np.testing.assert_allclose(loaded.values, measured.values)
