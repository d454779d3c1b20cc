"""Experiment drivers: tuning, sweeps, bounds and scenarios."""

import numpy as np
import pytest

from sparsemag import experiments, sensor
from sparsemag.detection import default_template
from sparsemag.grids import PulseSpec, TimeGrid, Waveform, synth_waveform
import oracles
from oracles import magnus_coefficients
from sparsemag.sensor import (
    NoiseModel,
    NoiseParameterError,
    cosine_coupling_matrix,
    magnus_quadratures,
)
from sparsemag.experiments import (
    LambdaGrid,
    SweepSpec,
    TrainingSetSpec,
    compute_bound,
    run_scenario,
    scenario_to_csv,
    simulate_measurements,
    sweep_sample_count,
    sweep_to_csv,
    tune_lambda,
    tune_to_csv,
    write_manifest,
)
from sparsemag.seeds import derive_seed
from sparsemag.transform import (
    SubsampleSet,
    apply_dst,
    apply_inverse_dst,
    dst_matrix,
    random_subsample,
    sine_interpolant,
)


@pytest.fixture(scope="module")
def one_pulse():
    tgrid = TimeGrid(100, 50e-6)
    return synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(3, 1, 5) == derive_seed(3, 1, 5)
    seeds = {derive_seed(0, 0, i) for i in range(100)}
    assert len(seeds) == 100


def test_magnus_quadratures_match_simpson(one_pulse):
    # closed-form batch quadratures vs composite-Simpson integration of the
    # interpolant, per frequency index
    tgrid = one_pulse.grid
    coefs = apply_dst(dst_matrix(100), one_pulse)
    drift = 170.0
    a, b = magnus_quadratures(coefs, tgrid.duration, drift_hz=drift)
    signal = sine_interpolant(one_pulse)
    for k in (1, 2, 17, 60, 99):
        rabi = k / (2.0 * tgrid.duration)
        oracle_a, oracle_b = magnus_coefficients(
            lambda t: np.asarray(signal(t)) + drift, rabi, tgrid.duration, step=1e-6
        )
        assert a[k - 1] == pytest.approx(oracle_a, abs=5e-8)
        assert b[k - 1] == pytest.approx(oracle_b, abs=5e-8)


def test_cosine_coupling_matrix_structure():
    c = cosine_coupling_matrix(6)
    k = np.arange(1, 6)[:, None]
    l = np.arange(1, 6)[None, :]
    assert np.all(c[(k + l) % 2 == 0] == 0.0)
    assert c[0, 1] == pytest.approx((4.0 / np.pi) * 2.0 / (4.0 - 1.0))


@pytest.mark.parametrize("n_grid", [2, 4, 100])
def test_cosine_coupling_matrix_shared_read_only_and_exact(n_grid):
    c = cosine_coupling_matrix(n_grid)
    assert cosine_coupling_matrix(n_grid) is c
    with pytest.raises(ValueError):
        c[0, 0] = 1.0
    k = np.arange(1, n_grid)[:, None].astype(float)
    l = np.arange(1, n_grid)[None, :].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        uncached = np.where((k + l) % 2 == 1, (4.0 / np.pi) * l / (l**2 - k**2), 0.0)
    np.testing.assert_array_equal(c, uncached)


def test_simulate_measurements_matches_per_shot(one_pulse):
    # the batch fast path must agree with one Magnus shot at a time to rounding
    noise = NoiseModel(200.0, 1000.0, seed=5)
    subset = random_subsample(100, 10, 3)
    batch = simulate_measurements(one_pulse, subset, noise, master_seed=21)
    for i, k in enumerate(subset.indices):
        shot_seed = derive_seed(21, 0, k)
        single = oracles.magnus_shot(one_pulse, k, noise, shot_seed)
        assert batch.values[i] == pytest.approx(single, abs=5e-9)


def test_simulate_measurements_noiseless_weak_matches_dst():
    tgrid = TimeGrid(100, 50e-6)
    weak = synth_waveform(tgrid, [PulseSpec(100.0, 200e-6, 1.025e-3)])
    coefs = apply_dst(dst_matrix(100), weak)
    measured = simulate_measurements(weak, None, None)
    scale = np.max(np.abs(coefs))
    big = np.abs(coefs) > 0.5 * scale
    assert np.max(np.abs(measured.values[big] - coefs[big]) / np.abs(coefs[big])) < 0.02
    assert np.max(np.abs(measured.values - coefs)) < 2e-3 * scale


def test_simulate_measurements_deterministic(one_pulse):
    noise = NoiseModel(200.0, 1000.0, seed=1)
    first = simulate_measurements(one_pulse, None, noise, master_seed=4)
    second = simulate_measurements(one_pulse, None, noise, master_seed=4)
    np.testing.assert_array_equal(first.values, second.values)


def _forbid_shots(monkeypatch):
    """Make any shot computation or noise draw fail the test."""
    def boom(*args, **kwargs):
        raise AssertionError("a shared shot was computed again")

    monkeypatch.setattr(sensor, "streams", boom)
    monkeypatch.setattr(sensor, "magnus_quadratures", boom)


def _count_shot_batches(monkeypatch):
    """Count the shot batches computed from here on."""
    calls = []
    real = sensor.magnus_quadratures

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sensor, "magnus_quadratures", counted)
    return calls


@pytest.mark.parametrize("n_grid", [20, 100, 257])
@pytest.mark.parametrize("noisy", [False, True])
def test_subset_is_the_full_vector_slice_cold_and_warm(monkeypatch, n_grid, noisy):
    tgrid = TimeGrid(n_grid, 50e-6)
    wf = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 0.3 * tgrid.duration)])
    noise = NoiseModel(200.0, 1000.0, seed=n_grid) if noisy else None
    subset = random_subsample(n_grid, n_grid // 2, 11)
    picked = np.asarray(subset.indices) - 1

    monkeypatch.setattr(sensor, "_last_full", None)
    cold = simulate_measurements(wf, subset, noise, master_seed=7).values
    full = simulate_measurements(wf, None, noise, master_seed=7).values
    assert cold.tobytes() == full[picked].tobytes()

    with monkeypatch.context() as m:
        _forbid_shots(m)
        warm = simulate_measurements(wf, subset, noise, master_seed=7).values
        again = simulate_measurements(wf, None, noise, master_seed=7).values
    assert warm.tobytes() == cold.tobytes()
    assert again.tobytes() == full.tobytes()


def test_returned_values_are_fresh_arrays(one_pulse):
    noise = NoiseModel(200.0, 1000.0, seed=2)
    subset = random_subsample(100, 30, 4)
    full = simulate_measurements(one_pulse, None, noise, master_seed=9)
    expected = full.values.copy()
    full.values[:] = 0.0
    hit = simulate_measurements(one_pulse, subset, noise, master_seed=9)
    assert hit.values.tobytes() == expected[np.asarray(subset.indices) - 1].tobytes()
    hit.values[:] = 0.0
    again = simulate_measurements(one_pulse, None, noise, master_seed=9)
    assert again.values.tobytes() == expected.tobytes()


def _near_misses(one_pulse):
    """(waveform, noise, master_seed) keys that differ from the base key
    (one_pulse, NoiseModel(200, 1000, seed=3), 5) in one part only."""
    zero = int(np.flatnonzero(one_pulse.samples == 0.0)[0])
    signed = one_pulse.samples.copy()
    signed[zero] = -0.0
    noise = NoiseModel(200.0, 1000.0, seed=3)
    return {
        "negative zero sample": (Waveform(signed, one_pulse.grid), noise, 5),
        "other dt": (Waveform(one_pulse.samples, TimeGrid(100, 25e-6)), noise, 5),
        "other noise seed": (one_pulse, NoiseModel(200.0, 1000.0, seed=4), 5),
        "other master seed": (one_pulse, noise, 6),
        "noiseless": (one_pulse, None, 5),
    }


@pytest.mark.parametrize("case", ["negative zero sample", "other dt", "other noise seed",
                                  "other master seed", "noiseless"])
def test_a_near_miss_key_recomputes(one_pulse, monkeypatch, case):
    wf, noise, master_seed = _near_misses(one_pulse)[case]
    subset = random_subsample(100, 60, 8)
    monkeypatch.setattr(sensor, "_last_full", None)
    cold = simulate_measurements(wf, subset, noise, master_seed).values

    simulate_measurements(one_pulse, None, NoiseModel(200.0, 1000.0, seed=3), 5)
    calls = _count_shot_batches(monkeypatch)
    warm = simulate_measurements(wf, subset, noise, master_seed).values
    assert calls == [1]
    assert warm.tobytes() == cold.tobytes()


def test_a_negative_zero_drift_std_is_not_read_as_zero(one_pulse):
    # -0.0 == 0.0, but numpy refuses a scale of -0.0 when the drift is
    # drawn, so the model refuses it before any vector is looked up
    simulate_measurements(one_pulse, None, NoiseModel(0.0, 1000.0, seed=3), 5)
    with pytest.raises(NoiseParameterError, match="and not -0.0") as raised:
        NoiseModel(-0.0, 1000.0, seed=3)
    assert raised.value.field == "bias_drift_std_hz"


@pytest.mark.parametrize("master_seed, noise_seed", [(5.0, 3), (5, 3.0)])
def test_a_float_seed_is_not_read_as_its_int(one_pulse, master_seed, noise_seed):
    # 5.0 == 5, but seed keys take integers only: the stored vector of the
    # int key must not hide that
    subset = random_subsample(100, 60, 8)
    simulate_measurements(one_pulse, None, NoiseModel(200.0, 1000.0, seed=3), 5)
    with pytest.raises(TypeError):
        simulate_measurements(one_pulse, subset, NoiseModel(200.0, 1000.0, seed=noise_seed),
                              master_seed)


def test_a_float_seed_error_names_its_parameter(one_pulse):
    with pytest.raises(TypeError, match=r"^seed: seed keys must be non-negative integers, got 1\.5$"):
        NoiseModel(seed=1.5)
    with pytest.raises(TypeError, match=r"^master_seed: seed keys .* integers, got 5\.0$"):
        simulate_measurements(one_pulse, None, NoiseModel(), master_seed=5.0)


def test_a_subset_for_another_grid_raises_before_the_lookup(one_pulse):
    simulate_measurements(one_pulse, None, None)
    with pytest.raises(ValueError, match="subset is for N=200, the waveform has N=100"):
        simulate_measurements(one_pulse, SubsampleSet(200, tuple(range(1, 61))), None)


def test_compute_bound_anchors_and_monotonicity():
    assert compute_bound(4, 100) == 34
    assert compute_bound(8, 100) == 57
    assert compute_bound(1, 100) == 12
    values = [compute_bound(s, 100) for s in range(1, 51)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[17:19] == [98, 102]  # s >= 19 exceeds the 99 coefficients: no warning
    with pytest.raises(ValueError):
        compute_bound(0, 100)
    with pytest.raises(ValueError):
        compute_bound(101, 100)
    with pytest.raises(ValueError, match="n_grid"):
        compute_bound(1, 1)  # no coefficient to measure
    assert compute_bound(50, 100) == 170


def test_tune_lambda_noiseless_prefers_tiny_lambda():
    spec = TrainingSetSpec(count=3, noise=NoiseModel(0.0, 1e9), master_seed=2)
    grid = LambdaGrid(low=1e-6, high=1e3, count=2)
    result = tune_lambda(spec, grid)
    assert result.best_lambda == pytest.approx(1e-6)


def test_tune_lambda_degenerate_count_smoke():
    spec = TrainingSetSpec(count=1, master_seed=5)
    result = tune_lambda(spec, LambdaGrid(low=0.5, high=2.0, count=3))
    assert result.best_lambda in result.lambdas
    assert result.mean_l1_error.shape == (3,)
    with pytest.raises(ValueError, match="count must be >= 1"):
        TrainingSetSpec(count=0)


def test_tune_lambda_counts_its_unconverged_solves(monkeypatch):
    # which solves stall at tiny lambda depends on last-bit rounding, so the
    # count is checked against the solves of the same run
    unconverged = []
    real = experiments.fista_solve_block

    def counted(*args, **kwargs):
        solved = real(*args, **kwargs)
        unconverged.append(int(np.count_nonzero(~solved.converged)))
        return solved

    monkeypatch.setattr(experiments, "fista_solve_block", counted)
    result = tune_lambda(TrainingSetSpec(count=2, master_seed=3), LambdaGrid(1e-6, 3e-6, 3))
    assert len(unconverged) == 2
    assert result.failed_solves == sum(unconverged) > 0


def test_lambda_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(low=2.0, high=1.0)
    with pytest.raises(ValueError):
        LambdaGrid(count=1)
    for low, high in ((-1.0, 10.0), (0.0, 10.0), (0.1, np.inf), (np.nan, 10.0)):
        with pytest.raises(ValueError, match="0 < low < high < inf"):
            LambdaGrid(low=low, high=high)
    values = LambdaGrid(0.1, 10.0, 200).values
    assert values.size == 200
    ratios = values[1:] / values[:-1]
    np.testing.assert_allclose(ratios, ratios[0])  # logarithmic spacing


def test_sweep_full_sampling_noiseless(one_pulse):
    base = simulate_measurements(one_pulse, None, None).values
    template = default_template(one_pulse.grid)
    spec = SweepSpec(m_values=(99,), base_measurements=base, subsets_per_m=5)
    rows = sweep_sample_count(spec, template, one_pulse.samples)
    m, mean_auc, std_auc = rows[0]
    assert m == 99
    assert mean_auc == pytest.approx(1.0)
    assert std_auc == pytest.approx(0.0)


def test_sweep_full_subset_zero_variance(one_pulse):
    # every "subset" is the full set: the sweep reproduces a single AUC with
    # zero variance
    noise = NoiseModel(200.0, 1000.0, seed=2)
    base = simulate_measurements(one_pulse, None, noise, master_seed=6).values
    template = default_template(one_pulse.grid)
    spec = SweepSpec(m_values=(99,), base_measurements=base, subsets_per_m=8)
    rows = sweep_sample_count(spec, template, one_pulse.samples)
    assert rows[0][2] == 0.0
    single = run_scenario("full_dst", one_pulse, noise, master_seed=6)
    # full-data FISTA and the inverse DST see the same information; the AUC
    # ordering statistic agrees
    assert rows[0][1] == pytest.approx(single.auc_value, abs=0.02)


def test_sweep_spec_validation(one_pulse):
    base = np.zeros(99)
    with pytest.raises(ValueError):
        SweepSpec(m_values=(100,), base_measurements=base)
    with pytest.raises(ValueError):
        SweepSpec(m_values=(0,), base_measurements=base)
    for subsets in (0, -1):
        with pytest.raises(ValueError, match="subsets_per_m"):
            SweepSpec(m_values=(10,), base_measurements=base, subsets_per_m=subsets)
    for lam in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="lam must lie in"):
            SweepSpec(m_values=(10,), base_measurements=base, lam=lam)


@pytest.mark.parametrize(
    "m_values, subsets, master_seed",
    [((10, 37, 99), 100, 4), ((60,), 1, 2**40), ((), 5, 0)],
)
def test_sweep_matches_per_subset_oracle(one_pulse, m_values, subsets, master_seed):
    # (10, 37, 99) x 100 is 300 columns: one full block and one partial one
    noise = NoiseModel(200.0, 1000.0, seed=1)
    base = simulate_measurements(one_pulse, None, noise, master_seed=3).values
    spec = SweepSpec(m_values, base, subsets_per_m=subsets, master_seed=master_seed)
    template = default_template(one_pulse.grid)
    rows = sweep_sample_count(spec, template, one_pulse.samples)
    assert repr(rows) == repr(oracles.sweep_sample_count(spec, template, one_pulse.samples))
    assert len(rows) == len(m_values)


def test_a_wide_master_seed_matches_the_oracles(one_pulse, monkeypatch):
    # seeds of 2**32 or more take numpy's SeedSequence one key at a time
    master = 2**40
    noise = NoiseModel(200.0, 1000.0, seed=2**32)
    monkeypatch.setattr(sensor, "_last_full", None)
    base = simulate_measurements(one_pulse, None, noise, master).values
    expected = oracles.simulate_measurements(one_pulse, None, noise, master)
    assert base.tobytes() == expected.tobytes()
    spec = SweepSpec((20, 37, 60), base, subsets_per_m=4, master_seed=master)
    template = default_template(one_pulse.grid)
    rows = sweep_sample_count(spec, template, one_pulse.samples)
    assert repr(rows) == repr(oracles.sweep_sample_count(spec, template, one_pulse.samples))


def _forbid(monkeypatch, module, *names):
    def fail(*args, **kwargs):
        raise AssertionError("a degenerate truth reached a shot or a solve")

    for name in names:
        monkeypatch.setattr(module, name, fail)


def test_sweep_rejects_degenerate_truth_before_solving(one_pulse, monkeypatch):
    base = simulate_measurements(one_pulse, None, None).values
    spec = SweepSpec(m_values=(20, 60), base_measurements=base, subsets_per_m=3)
    _forbid(
        monkeypatch, experiments,
        "fista_solve_block", "random_subsample", "random_subsample_masks",
    )
    with pytest.raises(ValueError, match="degenerate truth: no positives"):
        sweep_sample_count(spec, default_template(one_pulse.grid), np.zeros(99))


@pytest.mark.parametrize("name", ["ramsey", "full_dst", "compressive"])
def test_run_scenario_rejects_degenerate_truth_before_shots(name, monkeypatch):
    tgrid = TimeGrid(100, 50e-6)
    zero = synth_waveform(tgrid, [])
    _forbid(monkeypatch, experiments, "simulate_measurements", "fista_solve")
    _forbid(monkeypatch, sensor, "ramsey_sample")
    with pytest.raises(ValueError, match="degenerate truth: no positives"):
        run_scenario(name, zero, NoiseModel())


def test_run_scenario_unknown_name(one_pulse):
    with pytest.raises(ValueError):
        run_scenario("fourier", one_pulse, None)


def test_run_scenario_full_dst_noiseless(one_pulse):
    # zero noise: the scenario is the exact inverse DST of the noiseless
    # shots (which match the DST for a weak pulse, see
    # test_simulate_measurements_noiseless_weak_matches_dst)
    result = run_scenario("full_dst", one_pulse, None)
    shots = simulate_measurements(one_pulse, None, None)
    expected = apply_inverse_dst(dst_matrix(100), shots.values, one_pulse.grid)
    np.testing.assert_array_equal(result.recovered.samples, expected.samples)
    assert result.recovery is None
    assert result.auc_value == 1.0


def test_run_scenario_compressive_noisy(one_pulse):
    noise = NoiseModel(200.0, 1000.0, seed=0)
    result = run_scenario("compressive", one_pulse, noise, master_seed=0, m=60)
    assert result.auc_value >= 0.99
    np.testing.assert_array_equal(result.recovery.waveform, result.recovered.samples)


def test_run_scenario_ramsey_record(one_pulse):
    result = run_scenario("ramsey", one_pulse, None)
    assert result.recovered.samples.shape == (99,)
    assert result.recovery is None
    # noiseless ramsey tracks the waveform closely away from pulse edges
    assert result.auc_value == pytest.approx(1.0)


def test_experiment_rerun_bit_identical(one_pulse):
    noise = NoiseModel(200.0, 1000.0, seed=3)
    a = run_scenario("compressive", one_pulse, noise, master_seed=11, m=60)
    b = run_scenario("compressive", one_pulse, noise, master_seed=11, m=60)
    np.testing.assert_array_equal(a.recovered.samples, b.recovered.samples)
    assert a.auc_value == b.auc_value


def test_csv_writers(tmp_path, one_pulse):
    result = run_scenario("full_dst", one_pulse, None)
    scenario_csv = tmp_path / "scenario_csv.csv"
    scenario_to_csv(result, one_pulse, scenario_csv)
    lines = scenario_csv.read_text().strip().splitlines()
    assert lines[0] == "time_s,truth_hz,recovered_hz"
    assert len(lines) == 100

    sweep_csv = tmp_path / "sweep_csv.csv"
    sweep_to_csv([(60, 0.999, 0.001)], sweep_csv)
    assert sweep_csv.read_text().startswith("m,mean_auc,std_auc\n60,")

    tune_csv = tmp_path / "tune.csv"
    spec = TrainingSetSpec(count=1, master_seed=5)
    tune_to_csv(tune_lambda(spec, LambdaGrid(0.5, 2.0, 3)), tune_csv)
    assert tune_csv.read_text().startswith("lambda_hz,mean_l1_error\n")

    manifest = tmp_path / "run.json"
    write_manifest(manifest, "sweep", {"m": 60}, 7, [str(sweep_csv)])
    text = manifest.read_text()
    assert '"command": "sweep"' in text and '"master_seed": 7' in text
