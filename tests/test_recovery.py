"""FISTA/LASSO sparse recovery."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import objective, soft_threshold
from sparsemag.experiments import LambdaGrid, simulate_measurements
from sparsemag.grids import PulseSpec, make_grids, synth_waveform
from sparsemag.recovery import (
    FistaConfig,
    LassoProblem,
    RecoveryResult,
    default_lambda,
    fista_solve,
    fista_solve_block,
    result_metadata_to_json,
    result_to_csv,
    safe_step,
)
from sparsemag.sensor import NoiseModel
from sparsemag.transform import (
    apply_dst,
    apply_inverse_dst,
    dst_matrix,
    random_subsample,
    subsample_rows,
)


def _pulse_instance(subset_seed, lam):
    """Noiseless 4-sparse instance: one offset pulse, M=60 random rows."""
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    matrix = dst_matrix(100)
    subset = random_subsample(100, 60, subset_seed)
    operator = subsample_rows(matrix, subset)
    measurements = operator @ waveform.samples
    return waveform, LassoProblem(operator, measurements, lam)


def _reference_fista(problem, config=None):
    """The scalar FISTA loop the block engine replaced, kept as its oracle."""
    if config is None:
        config = FistaConfig()
    step = safe_step(problem.operator.shape[1] + 1)

    a_mat = problem.operator
    m = problem.measurements
    x = np.zeros(a_mat.shape[1])
    y = x.copy()
    theta = 1.0
    trace = [objective(problem, x)]
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        gradient = 2.0 * (a_mat.T @ (a_mat @ y - m))
        x_next = soft_threshold(y - step * gradient, step * problem.lam)
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta**2))
        y = x_next + ((theta - 1.0) / theta_next) * (x_next - x)
        x, theta = x_next, theta_next

        value = objective(problem, x)
        trace.append(value)
        previous = trace[-2]
        scale = max(abs(previous), abs(value), 1e-300)
        if abs(previous - value) <= config.rel_tolerance * scale:
            converged = True
            break

    return RecoveryResult(
        waveform=x,
        objective_trace=np.array(trace),
        iterations_used=iterations,
        converged=converged,
    )


def _assert_matches_reference(result, reference):
    assert result.iterations_used == reference.iterations_used
    assert result.converged == reference.converged
    np.testing.assert_allclose(result.waveform, reference.waveform, rtol=0, atol=1e-9)


def test_soft_threshold_examples():
    np.testing.assert_allclose(
        soft_threshold([3.0, -2.0, 0.5], 1.0), [2.0, -1.0, 0.0]
    )
    x = np.array([1.5, -0.3, 0.0, 7.0])
    np.testing.assert_array_equal(soft_threshold(x, 0.0), x)
    assert np.all(soft_threshold(x, np.max(np.abs(x))) == 0.0)
    with pytest.raises(ValueError):
        soft_threshold(x, -0.1)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    st.floats(0.0, 1e6),
)
def test_soft_threshold_properties(values, tau):
    x = np.array(values)
    out = soft_threshold(x, tau)
    # shrinkage toward zero, never past it, never changing sign
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all(out * x >= 0.0)
    np.testing.assert_allclose(out, np.sign(x) * np.maximum(np.abs(x) - tau, 0.0))


def test_objective_examples():
    rng = np.random.default_rng(0)
    operator = rng.normal(size=(6, 9))
    x_star = rng.normal(size=9)
    m = operator @ x_star
    problem = LassoProblem(operator, m, 0.7)
    assert objective(problem, np.zeros(9)) == pytest.approx(float(m @ m))
    assert objective(problem, x_star) == pytest.approx(0.7 * np.abs(x_star).sum())
    x = rng.normal(size=9)
    brute = (
        sum(
            (sum(operator[i, j] * x[j] for j in range(9)) - m[i]) ** 2
            for i in range(6)
        )
        + 0.7 * sum(abs(v) for v in x)
    )
    assert objective(problem, x) == pytest.approx(brute, abs=1e-12)


def test_problem_validation():
    operator = np.zeros((4, 9))
    with pytest.raises(ValueError):
        LassoProblem(operator, np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        LassoProblem(operator, np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        objective(LassoProblem(operator, np.zeros(4), 1.0), np.zeros(3))


def test_safe_step_value():
    # largest safe step is N for the 1/sqrt(2N)-normalised operator; the
    # solver keeps a 0.9 margin
    assert safe_step(100) == pytest.approx(90.0)


def test_fista_zero_data():
    _, problem = _pulse_instance(0, 1.0)
    zero_problem = LassoProblem(problem.operator, np.zeros(60), 1.0)
    result = fista_solve(zero_problem)
    assert np.all(result.waveform == 0.0)
    assert result.converged


def test_fista_exact_recovery_support():
    # the full-scale noiseless instance: support recovery at small lambda;
    # the l-infinity error floor scales with lambda (LASSO shrinkage bias),
    # so the 1e-3 Hz accuracy check uses a proportionally small lambda
    waveform, problem = _pulse_instance(3, 1e-4)
    config = FistaConfig(max_iters=40000, rel_tolerance=0.0)
    result = fista_solve(problem, config)
    true_support = np.abs(waveform.samples) > 1e-9
    assert np.array_equal(np.abs(result.waveform) > 1e-2, true_support)

    _, problem_small = _pulse_instance(3, 3e-6)
    result_small = fista_solve(problem_small, config)
    assert np.max(np.abs(result_small.waveform - waveform.samples)) < 1e-3


def test_fista_least_squares_limit():
    # full sampling, lambda -> 0+: recovery approaches the inverse DST
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    matrix = dst_matrix(100)
    m = apply_dst(matrix, waveform)
    problem = LassoProblem(matrix, m, 1e-8)
    result = fista_solve(problem, FistaConfig(max_iters=20000, rel_tolerance=0.0))
    direct = apply_inverse_dst(matrix, m, tgrid).samples
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(result.waveform - direct)) / scale < 1e-4


def test_fista_fixed_point_and_objective_ordering():
    waveform, problem = _pulse_instance(5, 0.01)
    config = FistaConfig(max_iters=40000, rel_tolerance=0.0)
    result = fista_solve(problem, config)
    step = safe_step(100)
    x = result.waveform
    gradient = 2.0 * (problem.operator.T @ (problem.operator @ x - problem.measurements))
    fixed_point = soft_threshold(x - step * gradient, step * problem.lam)
    assert np.max(np.abs(x - fixed_point)) < 1e-6
    assert objective(problem, x) <= objective(problem, np.zeros(99)) + 1e-12


def test_fista_objective_running_minimum_non_increasing():
    _, problem = _pulse_instance(7, 0.5)
    result = fista_solve(problem, FistaConfig(max_iters=2000))
    trace = result.objective_trace
    running_min = np.minimum.accumulate(trace)
    # plain (non-monotone) FISTA overshoots transiently by a fraction of a
    # percent; the trace must stay within 1% of the running minimum and end
    # at it
    assert np.all(trace <= running_min * (1.0 + 1e-2))
    assert trace[-1] <= running_min[-1] * (1.0 + 1e-9)


def test_fista_convergence_rate_envelope():
    # noisy measurements keep the solve busy past 200 iterations
    rng = np.random.default_rng(9)
    waveform, clean = _pulse_instance(9, 0.1)
    problem = LassoProblem(
        clean.operator, clean.measurements + 0.5 * rng.normal(size=60), 0.1
    )
    long_run = fista_solve(problem, FistaConfig(max_iters=30000, rel_tolerance=0.0))
    trace = long_run.objective_trace
    optimum = trace[-1]
    gap_20 = trace[20] - optimum
    # a solve that terminates before iteration 200 has gap 0 there
    gap_200 = trace[200] - optimum if trace.size > 200 else 0.0
    assert gap_20 > 0.0
    assert gap_200 < gap_20 / 50.0


def test_fista_homogeneity():
    _, problem = _pulse_instance(2, 0.8)
    config = FistaConfig(max_iters=10000, rel_tolerance=0.0)
    base = fista_solve(problem, config).waveform
    c = 3.5
    scaled_problem = LassoProblem(
        problem.operator, c * problem.measurements, c * problem.lam
    )
    scaled = fista_solve(scaled_problem, config).waveform
    np.testing.assert_allclose(scaled, c * base, atol=1e-6 * np.max(np.abs(base)) * c)


def test_fista_reports_non_convergence():
    _, problem = _pulse_instance(1, 1e-8)
    result = fista_solve(problem, FistaConfig(max_iters=5, rel_tolerance=0.0))
    assert not result.converged
    assert result.iterations_used == 5


def test_huge_lambda_gives_zero_without_overflow_warning():
    # step * 1e308 overflows to an infinite threshold, whose solution is 0
    _, problem = _pulse_instance(0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = fista_solve_block(problem.operator, problem.measurements, [1.0, 1e308])
    np.testing.assert_array_equal(results[1].waveform, np.zeros(99))
    assert results[1].converged
    assert np.any(results[0].waveform != 0.0)


def test_block_matches_scalar_on_lambda_grid():
    # a tune-style block: one noisy m = 60 measurement, the 200-point grid
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(
        tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3), PulseSpec(1000.0, 200e-6, 3.21e-3)]
    )
    subset = random_subsample(100, 60, 11)
    measured = simulate_measurements(waveform, subset, NoiseModel(seed=4), master_seed=5)
    operator = subsample_rows(dst_matrix(100), subset)
    lams = LambdaGrid().values
    results = fista_solve_block(operator, measured.values, lams)
    assert len(results) == lams.size
    for lam, result in zip(lams, results):
        problem = LassoProblem(operator, measured.values, lam)
        _assert_matches_reference(result, _reference_fista(problem))


def test_masked_block_matches_subsampled_rows():
    # criterion-7 base vector: all 99 noisy coefficients of the one-pulse
    # waveform; each column keeps the rows of one random subset
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    base = simulate_measurements(waveform, None, NoiseModel(seed=0), master_seed=0).values
    matrix = dst_matrix(100)
    subsets = [
        random_subsample(100, m, 100 * m + rep)
        for m in (10, 20, 34, 52, 60, 80, 99)
        for rep in range(4)
    ]
    masks = np.zeros((len(subsets), 99), dtype=bool)
    for j, subset in enumerate(subsets):
        masks[j, np.asarray(subset.indices) - 1] = True
    lam = default_lambda()
    results = fista_solve_block(
        matrix, base, np.full(len(subsets), lam), row_masks=masks
    )
    for subset, result in zip(subsets, results):
        rows = np.asarray(subset.indices) - 1
        problem = LassoProblem(subsample_rows(matrix, subset), base[rows], lam)
        _assert_matches_reference(result, _reference_fista(problem))


@pytest.mark.parametrize(
    "subset_seed, lam, config",
    [
        (0, 1.04, None),
        (3, 3e-6, FistaConfig(max_iters=40000, rel_tolerance=0.0)),
        (5, 0.01, FistaConfig(max_iters=40000, rel_tolerance=0.0)),
        (7, 0.5, FistaConfig(max_iters=2000)),
        (2, 0.8, FistaConfig(max_iters=10000, rel_tolerance=0.0)),
        (1, 1e-8, FistaConfig(max_iters=5, rel_tolerance=0.0)),
    ],
)
def test_single_solve_matches_scalar(subset_seed, lam, config):
    _, problem = _pulse_instance(subset_seed, lam)
    result = fista_solve(problem, config)
    reference = _reference_fista(problem, config)
    _assert_matches_reference(result, reference)
    np.testing.assert_allclose(
        result.objective_trace, reference.objective_trace, rtol=1e-12, atol=0
    )


def test_block_traces_are_per_column():
    _, problem = _pulse_instance(4, 1.0)
    lams = [0.05, 1.0, 20.0]
    results = fista_solve_block(problem.operator, problem.measurements, lams)
    for lam, result in zip(lams, results):
        single = fista_solve(LassoProblem(problem.operator, problem.measurements, lam))
        assert result.objective_trace.size == result.iterations_used + 1
        _assert_matches_reference(result, single)
        np.testing.assert_allclose(
            result.objective_trace, single.objective_trace, rtol=1e-12, atol=0
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    _, problem = _pulse_instance(0, 1.0)
    operator = problem.operator.copy()
    operator[3, 4] = bad
    measurements = problem.measurements.copy()
    measurements[7] = bad
    with pytest.raises(ValueError, match="operator"):
        LassoProblem(operator, problem.measurements, 1.0)
    with pytest.raises(ValueError, match="measurements"):
        LassoProblem(problem.operator, measurements, 1.0)
    with pytest.raises(ValueError, match="lambda"):
        LassoProblem(problem.operator, problem.measurements, bad)
    with pytest.raises(ValueError, match="operator"):
        fista_solve_block(operator, problem.measurements, [1.0])
    with pytest.raises(ValueError, match="measurements"):
        fista_solve_block(problem.operator, measurements, [1.0])
    with pytest.raises(ValueError, match="lambda"):
        fista_solve_block(problem.operator, problem.measurements, [1.0, bad])


def test_block_validation():
    _, problem = _pulse_instance(0, 1.0)
    args = (problem.operator, problem.measurements)
    with pytest.raises(ValueError, match="row mask"):
        fista_solve_block(*args, [1.0, 2.0], row_masks=np.ones((3, 60), dtype=bool))
    with pytest.raises(ValueError, match="row mask"):
        fista_solve_block(*args, [1.0], row_masks=np.ones(60, dtype=bool))
    with pytest.raises(ValueError, match="lambda"):
        fista_solve_block(*args, [])
    with pytest.raises(ValueError, match="lambda"):
        fista_solve_block(*args, [1.0, 0.0])
    with pytest.raises(ValueError, match="measurement length"):
        fista_solve_block(problem.operator, problem.measurements[:-1], [1.0])


def test_default_lambda_value():
    assert default_lambda() == pytest.approx(1.04)


def test_result_serialization(tmp_path):
    tgrid, _ = make_grids(100, 50e-6)
    result = RecoveryResult(
        waveform=np.linspace(-1.0, 1.0, 99),
        objective_trace=np.array([3.0, 1.0]),
        iterations_used=1,
        converged=True,
    )
    csv_path = tmp_path / "rec.csv"
    result_to_csv(result, tgrid.times, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "time_s,recovered_hz"
    assert len(lines) == 100

    json_path = tmp_path / "rec.json"
    result_metadata_to_json(result, 1.04, json_path)
    meta = json.loads(json_path.read_text())
    assert meta == {
        "lambda": 1.04,
        "iterations_used": 1,
        "converged": True,
        "final_objective": 1.0,
    }
