"""Acceptance suite: one pass/fail line per criterion.

Each test prints a `[acceptance]` line to the terminal (bypassing capture)
and then asserts the criterion at its stated tolerance.  Criteria that the
simulation model cannot meet are asserted anyway — a red entry here is a
finding, not a bug in the suite.  The same lines are written as data, in
report order, to ``.pytest_cache/acceptance.json`` at the end of the session
(see ``conftest.py``), so the numbers of two runs can be diffed.
"""

import time

import numpy as np
import pytest

import sparsemag as sm
from oracles import FX, expectation, magnus_coefficients, second_frame_state
from sparsemag import detection, experiments, recovery, sensor, transform


def report(capsys, name, ok, detail=""):
    # kept on the test item; conftest writes every report of the session out
    capsys.request.node.user_properties.append(
        ("acceptance", {"name": name, "ok": bool(ok), "detail": detail})
    )
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_transform_correctness(capsys):
    start = time.perf_counter()
    worst_gram = 0.0
    worst_sv = 0.0
    worst_round = 0.0
    for n in (2, 4, 16, 100):
        a = matrix = transform.dst_matrix(n)
        worst_gram = max(
            worst_gram, np.max(np.abs(a.T @ a - np.eye(n - 1) / (2 * n)))
        )
        sv = np.linalg.svd(a, compute_uv=False)
        worst_sv = max(worst_sv, np.max(np.abs(sv - 1.0 / np.sqrt(2 * n))))
        tgrid = sm.TimeGrid(n, 1e-3)
        x = np.random.default_rng(n).normal(size=n - 1)
        back = transform.apply_inverse_dst(
            matrix, transform.apply_dst(matrix, sm.Waveform(x, tgrid)), tgrid
        )
        worst_round = max(worst_round, np.max(np.abs(back.samples - x)))
    elapsed = time.perf_counter() - start
    ok = worst_gram < 1e-12 and worst_sv < 1e-10 and worst_round < 1e-12 and elapsed < 1.0
    report(
        capsys, "criterion 1 (transform correctness)", ok,
        f"gram {worst_gram:.1e}, sv {worst_sv:.1e}, roundtrip {worst_round:.1e}, "
        f"{elapsed:.2f}s",
    )
    assert worst_gram < 1e-12
    assert worst_sv < 1e-10
    assert worst_round < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2


def _unitary_sweep(amplitude):
    tgrid, _ = sm.make_grids(100, 50e-6)
    waveform = sm.synth_waveform(tgrid, [sm.PulseSpec(amplitude, 200e-6, 1.0e-3)])
    coefs = transform.apply_dst(transform.dst_matrix(100), waveform)
    simulated = np.array(
        [
            sensor.measure_sine_coefficient(waveform, k, None, step=1e-6)
            for k in range(1, 100)
        ]
    )
    return coefs, simulated


def test_criterion_2_sensor_equivalence_weak(capsys):
    start = time.perf_counter()
    coefs, simulated = _unitary_sweep(100.0)
    elapsed = time.perf_counter() - start
    error = np.max(np.abs(simulated - coefs))
    threshold = 1e-3 * np.max(np.abs(coefs))
    ok = error < threshold and elapsed < 30.0
    report(
        capsys, "criterion 2 (sensor = DST, 100 Hz)", ok,
        f"abs err {error:.2e} vs {threshold:.2e}, {elapsed:.1f}s",
    )
    assert error < threshold
    assert elapsed < 30.0


def test_criterion_2_sensor_equivalence_full_amplitude(capsys):
    start = time.perf_counter()
    coefs, simulated = _unitary_sweep(1000.0)
    elapsed = time.perf_counter() - start
    rel_error = np.max(np.abs(simulated - coefs)) / np.max(np.abs(coefs))
    ok = rel_error < 0.05 and elapsed < 30.0
    report(
        capsys, "criterion 2 (sensor = DST, 1 kHz)", ok,
        f"rel err {rel_error:.3f} vs 0.05, {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert rel_error < 0.05


# ---------------------------------------------------------------- criterion 3


def _second_frame_fx(b0, rabi, duration):
    omega = 2.0 * np.pi * rabi
    params = sensor.SensorParams(0.0, rabi, 0.0, duration, 1e-6)
    state = second_frame_state(
        sensor.evolve_rotating_frame(lambda t: b0 * np.sin(omega * t), params), params
    )
    coeffs = magnus_coefficients(
        lambda t: b0 * np.sin(omega * t), rabi, duration, step=1e-6
    )
    return expectation(state, FX), sensor.magnus_prediction(*coeffs)


def test_criterion_3_magnus_closed_form(capsys):
    rabi = 1000.0
    duration = 5e-3
    fx_small, predicted_small = _second_frame_fx(10.0, rabi, duration)
    error_small = abs(fx_small - predicted_small)

    # amplitude chosen so a = 2 pi B0 T / 2 = 1 rad
    b0 = 1.0 / (np.pi * duration)
    fx_one, predicted_one = _second_frame_fx(b0, rabi, duration)
    rel_error = abs(fx_one - predicted_one) / abs(predicted_one)
    # the prediction at a = 1 is genuinely compressed: sin(1) = 0.841, not 1
    compressed = abs(predicted_one - np.sin(1.0)) < 1e-3

    ok = error_small < 1e-3 and rel_error < 0.01 and compressed
    report(
        capsys, "criterion 3 (Magnus closed form)", ok,
        f"abs err {error_small:.1e} @ B0=10 Hz, rel err {rel_error:.1e} @ a=1 rad",
    )
    assert error_small < 1e-3
    assert rel_error < 0.01
    assert compressed


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_rwa_validation(capsys):
    larmor = 603e3
    rabi = 1000.0
    duration = 0.5e-3
    start = time.perf_counter()
    lab = sensor.evolve_lab_frame(
        lambda t: np.zeros_like(t),
        sensor.SensorParams(larmor, rabi, larmor, duration, 1.0 / (60.0 * larmor)),
    )
    rot = sensor.evolve_rotating_frame(
        lambda t: np.zeros_like(t),
        sensor.SensorParams(larmor, rabi, larmor, duration, 1e-6),
    )
    elapsed = time.perf_counter() - start
    deviation = np.max(np.abs(np.abs(lab) ** 2 - np.abs(rot) ** 2))
    ok = deviation < 0.005 and elapsed < 60.0
    report(
        capsys, "criterion 4 (RWA lab vs rotating)", ok,
        f"population dev {deviation:.1e}, {elapsed:.2f}s",
    )
    assert deviation < 0.005
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_exact_sparse_recovery(capsys):
    start = time.perf_counter()
    tgrid, _ = sm.make_grids(100, 50e-6)
    waveform = sm.synth_waveform(tgrid, [sm.PulseSpec(1000.0, 200e-6, 1.025e-3)])
    matrix = transform.dst_matrix(100)
    true_support = np.abs(waveform.samples) > 1e-9
    config = recovery.FistaConfig(max_iters=40000, rel_tolerance=0.0)
    successes = 0
    worst = 0.0
    for seed in range(20):
        subset = transform.random_subsample(100, 60, seed)
        operator = transform.subsample_rows(matrix, subset)
        problem = recovery.LassoProblem(operator, operator @ waveform.samples, 3e-6)
        result = recovery.fista_solve(problem, config)
        error = np.max(np.abs(result.waveform - waveform.samples))
        worst = max(worst, error)
        support = np.abs(result.waveform) > 1e-2
        if np.array_equal(support, true_support) and error < 1e-3:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes == 20 and elapsed < 10.0
    report(
        capsys, "criterion 5 (noiseless exact recovery)", ok,
        f"{successes}/20 subsets, worst linf {worst:.1e} Hz, {elapsed:.1f}s",
    )
    assert successes == 20
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_bound_anchors(capsys):
    b4 = experiments.compute_bound(4, 100)
    b8 = experiments.compute_bound(8, 100)
    ok = b4 == 34 and b8 == 57
    report(capsys, "criterion 6 (bound anchors 34/57)", ok, f"got {b4}, {b8}")
    assert b4 == 34
    assert b8 == 57


# ---------------------------------------------------------------- criterion 7


@pytest.fixture(scope="module")
def sample_sweeps():
    start = time.perf_counter()
    tgrid, _ = sm.make_grids(100, 50e-6)
    noise = sm.NoiseModel(200.0, 1000.0, seed=0)
    template = detection.default_template(tgrid)
    m_grid = (10,) + tuple(range(20, 81, 2)) + (99,)
    results = {}
    for name, pulses in (
        ("one", [sm.PulseSpec(1000.0, 200e-6, 1.025e-3)]),
        ("two", [sm.PulseSpec(1000.0, 200e-6, 1.025e-3),
                 sm.PulseSpec(1000.0, 200e-6, 3.21e-3)]),
    ):
        waveform = sm.synth_waveform(tgrid, pulses)
        base = experiments.simulate_measurements(waveform, None, noise, master_seed=0)
        spec = experiments.SweepSpec(
            m_values=m_grid, base_measurements=base.values,
            subsets_per_m=200, master_seed=7,
        )
        rows = experiments.sweep_sample_count(spec, template, waveform.samples)
        results[name] = {m: mean for m, mean, _ in rows}
    return m_grid, results, time.perf_counter() - start


def _crossing(m_grid, means):
    above = [m for m in m_grid if all(means[mm] >= 0.99 for mm in m_grid if mm >= m)]
    return above[0] if above else None


def test_criterion_7_auc_at_60_and_10(capsys, sample_sweeps):
    _, results, elapsed = sample_sweeps
    at60 = (results["one"][60], results["two"][60])
    at10 = (results["one"][10], results["two"][10])
    ok = all(v >= 0.99 for v in at60) and all(v < 0.9 for v in at10)
    report(
        capsys, "criterion 7 (AUC at m=60 and m=10)", ok,
        f"m=60: {at60[0]:.4f}/{at60[1]:.4f}, m=10: {at10[0]:.3f}/{at10[1]:.3f}, "
        f"sweeps {elapsed:.1f}s",
    )
    assert all(v >= 0.99 for v in at60)
    assert all(v < 0.9 for v in at10)


def test_criterion_7_one_pulse_crossing(capsys, sample_sweeps):
    m_grid, results, elapsed = sample_sweeps
    crossing = _crossing(m_grid, results["one"])
    ok = crossing is not None and 26 <= crossing <= 46
    report(
        capsys, "criterion 7 (one-pulse 99% crossing vs 36±10)", ok,
        f"simulated crossing m={crossing}, sweeps {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_two_pulse_crossing(capsys, sample_sweeps):
    m_grid, results, elapsed = sample_sweeps
    crossing = _crossing(m_grid, results["two"])
    ok = crossing is not None and 42 <= crossing <= 62
    report(
        capsys, "criterion 7 (two-pulse 99% crossing vs 52±10)", ok,
        f"simulated crossing m={crossing}, sweeps {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_lambda_tuning(capsys):
    # smoke tier: 100 training sequences, window widened to [0.2, 5] Hz
    start = time.perf_counter()
    spec = experiments.TrainingSetSpec(count=100, master_seed=11)
    result = experiments.tune_lambda(spec, experiments.LambdaGrid())
    elapsed = time.perf_counter() - start
    lams = np.asarray(result.lambdas)
    errs = np.asarray(result.mean_l1_error)
    window = (lams >= 0.52) & (lams <= 2.08)
    flatness = (errs[window].max() - errs[window].min()) / errs[window].min()
    in_window = 0.2 <= result.best_lambda <= 5.0
    ok = in_window and flatness <= 0.10 and elapsed < 300.0
    report(
        capsys, "criterion 8 (lambda tuning)", ok,
        f"best {result.best_lambda:.2f} Hz, flatness {flatness:.2f} vs 0.10, "
        f"{elapsed:.0f}s",
    )
    assert in_window
    assert elapsed < 300.0
    assert flatness <= 0.10


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_scenario_ordering(capsys):
    tgrid, _ = sm.make_grids(100, 50e-6)
    waveform = sm.synth_waveform(tgrid, [sm.PulseSpec(1000.0, 200e-6, 1.025e-3)])
    seed = 19
    noise = sm.NoiseModel(200.0, 1000.0, seed=seed)
    ramsey = experiments.run_scenario("ramsey", waveform, noise, master_seed=seed)
    compressive = experiments.run_scenario(
        "compressive", waveform, noise, master_seed=seed, m=60
    )
    ok = compressive.auc_value > ramsey.auc_value
    report(
        capsys, "criterion 9 (compressive beats Ramsey)", ok,
        f"AUC {compressive.auc_value:.4f} vs {ramsey.auc_value:.4f}",
    )
    assert ok


# --------------------------------------------------------------- criterion 10


def test_criterion_10_detection_unit_suite(capsys):
    tgrid, _ = sm.make_grids(100, 50e-6)
    template = detection.default_template(tgrid)
    waveform = sm.synth_waveform(tgrid, [sm.PulseSpec(1000.0, 200e-6, 1.025e-3)])
    truth = detection.ground_truth_classification(waveform.samples, template)

    perfect = detection.auc(
        detection.roc_curve(waveform.samples, template, truth)
    )

    constant = detection.auc(
        detection.roc_curve_from_scores(np.full(99, 1.0), truth)
    )

    rng = np.random.default_rng(1)
    scores = rng.normal(size=99)
    base = detection.auc(detection.roc_curve_from_scores(scores, truth))
    warped = detection.auc(
        detection.roc_curve_from_scores(np.exp(scores), truth)
    )
    negated = detection.auc(detection.roc_curve_from_scores(-scores, truth))

    ok = (
        perfect == 1.0
        and constant == 0.5
        and warped == base
        and negated == 1.0 - base
    )
    report(
        capsys, "criterion 10 (detection unit suite)", ok,
        f"perfect {perfect}, constant {constant}, monotone/negation exact",
    )
    assert perfect == 1.0
    assert constant == 0.5
    assert warped == base
    assert negated == 1.0 - base


# --------------------------------------------------------------- criterion 11


# identical flags in both sessions; only the working directory differs
CLI_RUNS = [
    ("synth", ["synth", "--n", "100", "--dt", "50e-6",
               "--pulses", "1.025e-3,1000,200e-6", "--out", "wf.csv"]),
    ("measure", ["measure", "--in", "wf.csv", "--m", "60", "--seed", "7",
                 "--out", "m.csv"]),
    ("measure-full", ["measure", "--in", "wf.csv", "--full",
                      "--out", "full.csv"]),
    ("recover", ["recover", "--measurements", "m.csv", "--n", "100",
                 "--dt", "50e-6", "--out", "rec.csv"]),
    ("roc", ["roc", "--recovered", "rec.csv", "--truth", "wf.csv",
             "--out", "roc.csv"]),
    ("tune", ["tune", "--count", "2", "--lambda-low", "0.5", "--lambda-high",
              "2.0", "--lambda-count", "3", "--seed", "5", "--out", "tune.csv"]),
    ("sweep", ["sweep", "--base", "full.csv", "--truth", "wf.csv",
               "--n", "100", "--m-list", "20,60", "--subsets", "2", "--seed", "3",
               "--out", "sweep.csv"]),
    ("bound", ["bound", "--sparsity", "4", "--n", "100"]),
]


def _run_cli_session(run_sparsemag, directory):
    outputs = {}
    for name, args in CLI_RUNS:
        proc = run_sparsemag(args, cwd=directory)
        outputs[f"stdout:{name}"] = proc.stdout
    for path in sorted(directory.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def test_criterion_11_cli_determinism(capsys, tmp_path, run_sparsemag):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    first = _run_cli_session(run_sparsemag, dir_a)
    second = _run_cli_session(run_sparsemag, dir_b)
    mismatched = [k for k in first if first[k] != second[k]]
    ok = first.keys() == second.keys() and not mismatched
    report(
        capsys, "criterion 11 (CLI determinism)", ok,
        f"{len(first)} artefacts byte-compared" + (f", differ: {mismatched}" if mismatched else ""),
    )
    assert not mismatched
