"""Matched filtering, ROC curves and AUC."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sparsemag.detection import (
    Template,
    auc,
    auc_from_scores,
    auc_to_json,
    default_template,
    ground_truth_classification,
    matched_filter,
    roc_curve,
    roc_curve_from_scores,
    roc_to_csv,
)
from sparsemag.grids import PulseSpec, TimeGrid, synth_waveform


def test_template_validation_and_energy():
    with pytest.raises(ValueError):
        Template(np.zeros(4))
    with pytest.raises(ValueError):
        Template(np.array([]))
    template = Template(np.array([0.0, 3.0, 0.0, -4.0]))
    assert template.energy == pytest.approx(25.0)


def test_default_template_shape():
    tgrid = TimeGrid(100, 50e-6)
    template = default_template(tgrid)
    np.testing.assert_allclose(
        template.samples, [0.0, 1000.0, 0.0, -1000.0], atol=1e-9
    )


def test_default_template_is_shared_and_refuses_writes():
    tgrid = TimeGrid(100, 50e-6)
    template = default_template(tgrid)
    assert default_template(TimeGrid(100, 50e-6)) is template
    with pytest.raises(ValueError, match="read-only"):
        template.samples[0] = 1.0
    assert default_template(TimeGrid(100, 51e-6)) is not template


def test_default_template_must_fit_the_grid():
    tgrid = TimeGrid(100, 50e-6)
    # 99.4 samples round to the 99 the grid holds
    assert default_template(tgrid, pulse_duration=99.4 * 50e-6).samples.size == 99
    for duration in (99.6 * 50e-6, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"pulse_duration .* / dt 5e-05 s is .* N - 1 = 99"):
            default_template(tgrid, pulse_duration=duration)


def test_matched_filter_self_match_peak():
    template = Template(np.array([0.0, 1000.0, 0.0, -1000.0]))
    signal = np.zeros(99)
    signal[30:34] = template.samples
    scores = matched_filter(signal, template)
    assert scores.shape == (99,)
    assert scores[30] == pytest.approx(template.energy)
    assert np.argmax(scores) == 30


def test_matched_filter_zero_signal_and_two_pulses():
    template = Template(np.array([1.0, -2.0, 3.0]))
    assert np.all(matched_filter(np.zeros(50), template) == 0.0)

    signal = np.zeros(50)
    signal[5:8] = template.samples
    signal[20:23] = template.samples
    scores = matched_filter(signal, template)
    brute = np.array(
        [
            sum(
                signal[j + k] * template.samples[k]
                for k in range(3)
                if j + k < signal.size
            )
            for j in range(50)
        ]
    )
    np.testing.assert_allclose(scores, brute, atol=1e-12)
    assert scores[5] == pytest.approx(template.energy)
    assert scores[20] == pytest.approx(template.energy)


@pytest.mark.parametrize("taps", [1, 2, 4, 11, 12, 16, 17, 40, 99])
def test_block_matched_filter_equals_np_correlate_per_row(taps):
    # numpy sums at most 11 taps in a loop of its own and more by a BLAS dot,
    # and the last taps - 1 scores by a dot over the samples left
    rng = np.random.default_rng(taps)
    template = Template(rng.normal(size=taps) * 1000.0)
    block = rng.normal(size=(8, 99)) * 100.0
    block[0], block[1] = 0.0, -0.0
    block[2, ::3] = -0.0
    block[3, :50] = 0.0
    block[4, -taps:] = -0.0
    scores = matched_filter(block, template)
    assert scores.shape == block.shape
    for row, got in zip(block, scores):
        expected = np.correlate(row, template.samples, "full")[taps - 1 :]
        assert got.tobytes() == expected.tobytes()
        assert matched_filter(row, template).tobytes() == expected.tobytes()


def test_matched_filter_rejects_long_template():
    with pytest.raises(ValueError):
        matched_filter(np.zeros(3), Template(np.ones(5)))


def test_ground_truth_classification_on_pulse():
    tgrid = TimeGrid(100, 50e-6)
    template = default_template(tgrid)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    labels = ground_truth_classification(waveform.samples, template)
    # the aligned pulse correlates at full energy at its own start index
    assert labels[19] == 1
    brute = matched_filter(waveform.samples, template) >= template.energy / 2
    np.testing.assert_array_equal(labels, brute.astype(int))

    assert np.all(ground_truth_classification(np.zeros(99), template) == 0)

    inverted = -waveform.samples
    assert ground_truth_classification(inverted, template)[19] == 0


def test_classification_validation():
    with pytest.raises(ValueError, match="binary"):
        roc_curve_from_scores(np.arange(3.0), np.array([0, 2, 1]))


def test_roc_perfect_classifier_contains_0_1():
    truth = np.array([1, 1, 0, 0, 0])
    curve = roc_curve_from_scores(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), truth)
    assert any(np.allclose(p, (0.0, 1.0)) for p in curve)
    assert auc(curve) == pytest.approx(1.0)
    # hand-enumerated staircase: passes through (0, 0.5) as well
    assert any(np.allclose(p, (0.0, 0.5)) for p in curve)


def test_roc_constant_scores():
    truth = np.array([1, 0, 1, 0])
    curve = roc_curve_from_scores(np.full(4, 2.5), truth)
    np.testing.assert_allclose(curve, [(0.0, 0.0), (1.0, 1.0)])
    assert auc(curve) == pytest.approx(0.5)


def _reference_roc_points(scores, truth):
    """The per-threshold loop ``roc_curve_from_scores`` replaced."""
    scores = np.asarray(scores, dtype=float)
    n_positive = int(truth.sum())
    n_negative = int(truth.size - n_positive)
    distinct = np.unique(scores)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = np.concatenate(([distinct[0] - 1.0], midpoints, [distinct[-1] + 1.0]))
    points = []
    for threshold in thresholds:
        predicted = scores >= threshold
        recall = np.sum(predicted & (truth == 1)) / n_positive
        fallout = np.sum(predicted & (truth == 0)) / n_negative
        points.append((fallout, recall))
    points = np.unique(np.array(points), axis=0)
    order = np.lexsort((points[:, 1], points[:, 0]))
    return points[order]


def test_roc_matches_reference_loop():
    # 1200 seeded score vectors, rounded so that many scores tie
    rng = np.random.default_rng(2024)
    for case in range(1200):
        size = int(rng.integers(2, 120))
        labels = (rng.random(size) < rng.uniform(0.05, 0.95)).astype(int)
        labels[rng.integers(size)] = 1
        labels[(labels.nonzero()[0][0] + 1) % size] = 0
        decimals = int(rng.integers(0, 4))
        scores = np.round(rng.normal(scale=10.0 ** rng.integers(-2, 4), size=size), decimals)
        truth = labels
        expected = _reference_roc_points(scores, truth)
        points = roc_curve_from_scores(scores, truth)
        assert points.shape == expected.shape, case
        assert np.array_equal(points, expected), case


@st.composite
def _score_blocks(draw):
    """Labels with both classes and a (B, n) block of heavily tied scores:
    rows drawn from a few values, -0.0 and 0.0 among them, some rows constant."""
    n = draw(st.integers(2, 40))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[0], labels[-1] = 1, 0
    values = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e-300, np.nextafter(1.0, 2.0)])
    row = st.one_of(
        st.lists(values, min_size=n, max_size=n),
        values.map(lambda v: [v] * n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    )
    block = draw(st.lists(row, min_size=1, max_size=8))
    return np.array(block, dtype=float), np.array(labels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_score_blocks())
def test_block_auc_matches_row_oracle(case):
    scores, labels = case
    areas = auc_from_scores(scores, labels)
    assert areas.shape == (len(scores),)
    for row, area in zip(scores, areas):
        expected = oracles.roc_curve_from_scores(row, labels)
        curve = roc_curve_from_scores(row, labels)
        assert curve.shape == expected.shape and (curve == expected).all()
        assert area == auc(expected)
    single = auc_from_scores(scores[:1], labels)
    assert single.shape == (1,) and single[0] == areas[0]


def test_roc_adjacent_scores_keep_every_step():
    # the midpoint of two adjacent doubles rounds onto one of them; the
    # threshold must still separate them
    low = 1.0
    high = np.nextafter(low, 2.0)
    truth = np.array([0, 1])
    curve = roc_curve_from_scores(np.array([low, high]), truth)
    np.testing.assert_array_equal(curve, [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert auc(curve) == 1.0


def test_roc_rejects_bad_scores():
    truth = np.array([1, 0, 1, 0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            roc_curve_from_scores(np.array([1.0, bad, 0.5, 0.2]), truth)
    with pytest.raises(ValueError, match="do not match"):
        roc_curve_from_scores(np.array([1.0, 0.5, 0.2]), truth)
    with pytest.raises(ValueError, match="non-finite"):
        auc_from_scores(np.array([[1.0, 0.5, 0.2, 0.1], [1.0, np.nan, 0.5, 0.2]]), truth)
    with pytest.raises(ValueError, match="do not match"):
        auc_from_scores(np.array([[1.0, 0.5, 0.2]]), truth)


def test_roc_degenerate_truth_errors():
    template = Template(np.array([1.0]))
    why = ": a location is positive where the truth's matched output reaches half the energy"
    with pytest.raises(ValueError, match=f"no positives, recall undefined{why}"):
        roc_curve(np.zeros(5), template, np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match=f"no negatives, fallout undefined{why}"):
        roc_curve(np.zeros(5), template, np.ones(5, dtype=int))
    with pytest.raises(ValueError, match="recall"):
        roc_curve_from_scores(np.arange(5.0), np.zeros(5, dtype=int))


def test_roc_endpoints_and_ranges():
    rng = np.random.default_rng(8)
    truth = (rng.random(40) < 0.3).astype(int)
    curve = roc_curve_from_scores(rng.normal(size=40), truth)
    pts = np.asarray(curve)
    assert np.allclose(pts[0], (0.0, 0.0))
    assert np.allclose(pts[-1], (1.0, 1.0))
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    # recall and fallout both non-decreasing along the sweep
    assert np.all(np.diff(pts[:, 0]) >= 0.0)
    assert np.all(np.diff(pts[:, 1]) >= -1e-12)


def test_auc_trapezoid_examples():
    assert auc(np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])) == 1.0
    assert auc(np.array([(0.0, 0.0), (1.0, 1.0)])) == 0.5
    toy = np.array([(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)])
    assert auc(toy) == pytest.approx(0.625)


@given(st.integers(0, 2**32 - 1))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(25) < 0.4).astype(int)
    if labels.sum() in (0, labels.size):
        return
    truth = labels
    scores = rng.normal(size=25)
    base = auc(roc_curve_from_scores(scores, truth))
    warped = auc(roc_curve_from_scores(np.exp(0.5 * scores) + 3.0, truth))
    assert warped == pytest.approx(base, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_auc_negation_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(25) < 0.4).astype(int)
    if labels.sum() in (0, labels.size):
        return
    truth = labels
    scores = rng.normal(size=25)
    forward = auc(roc_curve_from_scores(scores, truth))
    backward = auc(roc_curve_from_scores(-scores, truth))
    assert forward + backward == pytest.approx(1.0, abs=1e-12)


def test_roc_end_to_end_perfect_recovery():
    tgrid = TimeGrid(100, 50e-6)
    template = default_template(tgrid)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    truth = ground_truth_classification(waveform.samples, template)
    curve = roc_curve(waveform.samples, template, truth)
    assert auc(curve) == 1.0


def test_roc_serialization(tmp_path):
    curve = np.array([(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)])
    csv_path = tmp_path / "roc.csv"
    roc_to_csv(curve, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "fallout,recall"
    assert len(lines) == 4

    json_path = tmp_path / "auc.json"
    auc_to_json(0.625, json_path)
    assert json.loads(json_path.read_text()) == {"auc": 0.625}
