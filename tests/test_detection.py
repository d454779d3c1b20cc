"""Matched filtering, ROC curves and AUC."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsemag.detection import (
    AucScore,
    Classification,
    RocCurve,
    Template,
    auc,
    auc_to_json,
    confusion_counts,
    default_template,
    ground_truth_classification,
    matched_filter,
    roc_curve,
    roc_curve_from_scores,
    roc_to_csv,
)
from sparsemag.grids import PulseSpec, make_grids, synth_waveform


def test_template_validation_and_energy():
    with pytest.raises(ValueError):
        Template(np.zeros(4))
    with pytest.raises(ValueError):
        Template(np.array([]))
    template = Template(np.array([0.0, 3.0, 0.0, -4.0]))
    assert template.energy == pytest.approx(25.0)


def test_default_template_shape():
    tgrid, _ = make_grids(100, 50e-6)
    template = default_template(tgrid)
    np.testing.assert_allclose(
        template.samples, [0.0, 1000.0, 0.0, -1000.0], atol=1e-9
    )


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


def test_matched_filter_rejects_long_template():
    with pytest.raises(ValueError):
        matched_filter(np.zeros(3), Template(np.ones(5)))


def test_ground_truth_classification_on_pulse():
    tgrid, _ = make_grids(100, 50e-6)
    template = default_template(tgrid)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    labels = ground_truth_classification(waveform.samples, template).labels
    # the aligned pulse correlates at full energy at its own start index
    assert labels[19] == 1
    brute = matched_filter(waveform.samples, template) >= template.energy / 2
    np.testing.assert_array_equal(labels, brute.astype(int))

    assert np.all(ground_truth_classification(np.zeros(99), template).labels == 0)

    inverted = -waveform.samples
    assert ground_truth_classification(inverted, template).labels[19] == 0


def test_confusion_counts():
    predicted = Classification(np.array([1, 1, 0, 0, 1]))
    truth = Classification(np.array([1, 0, 0, 1, 1]))
    counts = confusion_counts(predicted, truth)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 1, 1)
    assert counts.tp + counts.fp + counts.fn + counts.tn == 5
    with pytest.raises(ValueError):
        confusion_counts(predicted, Classification(np.array([1, 0])))


def test_classification_validation():
    with pytest.raises(ValueError):
        Classification(np.array([0, 2, 1]))


def test_roc_perfect_classifier_contains_0_1():
    truth = Classification(np.array([1, 1, 0, 0, 0]))
    curve = roc_curve_from_scores(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), truth)
    assert any(np.allclose(p, (0.0, 1.0)) for p in curve.points)
    assert auc(curve).value == pytest.approx(1.0)
    # hand-enumerated staircase: passes through (0, 0.5) as well
    assert any(np.allclose(p, (0.0, 0.5)) for p in curve.points)


def test_roc_constant_scores():
    truth = Classification(np.array([1, 0, 1, 0]))
    curve = roc_curve_from_scores(np.full(4, 2.5), truth)
    np.testing.assert_allclose(curve.points, [(0.0, 0.0), (1.0, 1.0)])
    assert auc(curve).value == pytest.approx(0.5)


def _reference_roc_points(scores, truth):
    """The per-threshold loop ``roc_curve_from_scores`` replaced."""
    scores = np.asarray(scores, dtype=float)
    n_positive = int(truth.labels.sum())
    n_negative = int(truth.labels.size - n_positive)
    distinct = np.unique(scores)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = np.concatenate(([distinct[0] - 1.0], midpoints, [distinct[-1] + 1.0]))
    points = []
    for threshold in thresholds:
        predicted = scores >= threshold
        recall = np.sum(predicted & (truth.labels == 1)) / n_positive
        fallout = np.sum(predicted & (truth.labels == 0)) / n_negative
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
        truth = Classification(labels)
        expected = _reference_roc_points(scores, truth)
        points = roc_curve_from_scores(scores, truth).points
        assert points.shape == expected.shape, case
        assert np.array_equal(points, expected), case


def test_roc_adjacent_scores_keep_every_step():
    # the midpoint of two adjacent doubles rounds onto one of them; the
    # threshold must still separate them
    low = 1.0
    high = np.nextafter(low, 2.0)
    truth = Classification(np.array([0, 1]))
    curve = roc_curve_from_scores(np.array([low, high]), truth)
    np.testing.assert_array_equal(curve.points, [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert auc(curve).value == 1.0


def test_roc_rejects_bad_scores():
    truth = Classification(np.array([1, 0, 1, 0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            roc_curve_from_scores(np.array([1.0, bad, 0.5, 0.2]), truth)
    with pytest.raises(ValueError, match="do not match"):
        roc_curve_from_scores(np.array([1.0, 0.5, 0.2]), truth)


def test_roc_degenerate_truth_errors():
    template = Template(np.array([1.0]))
    with pytest.raises(ValueError, match="recall"):
        roc_curve(np.zeros(5), template, Classification(np.zeros(5, dtype=int)))
    with pytest.raises(ValueError, match="fallout"):
        roc_curve(np.zeros(5), template, Classification(np.ones(5, dtype=int)))


def test_roc_endpoints_and_ranges():
    rng = np.random.default_rng(8)
    truth = Classification((rng.random(40) < 0.3).astype(int))
    curve = roc_curve_from_scores(rng.normal(size=40), truth)
    pts = np.asarray(curve.points)
    assert np.allclose(pts[0], (0.0, 0.0))
    assert np.allclose(pts[-1], (1.0, 1.0))
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    # recall and fallout both non-decreasing along the sweep
    assert np.all(np.diff(pts[:, 0]) >= 0.0)
    assert np.all(np.diff(pts[:, 1]) >= -1e-12)


def test_auc_trapezoid_examples():
    assert auc(RocCurve(np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]))).value == 1.0
    assert auc(RocCurve(np.array([(0.0, 0.0), (1.0, 1.0)]))).value == 0.5
    toy = RocCurve(np.array([(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)]))
    assert auc(toy).value == pytest.approx(0.625)


@given(st.integers(0, 2**32 - 1))
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(25) < 0.4).astype(int)
    if labels.sum() in (0, labels.size):
        return
    truth = Classification(labels)
    scores = rng.normal(size=25)
    base = auc(roc_curve_from_scores(scores, truth)).value
    warped = auc(roc_curve_from_scores(np.exp(0.5 * scores) + 3.0, truth)).value
    assert warped == pytest.approx(base, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_auc_negation_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    labels = (rng.random(25) < 0.4).astype(int)
    if labels.sum() in (0, labels.size):
        return
    truth = Classification(labels)
    scores = rng.normal(size=25)
    forward = auc(roc_curve_from_scores(scores, truth)).value
    backward = auc(roc_curve_from_scores(-scores, truth)).value
    assert forward + backward == pytest.approx(1.0, abs=1e-12)


def test_roc_end_to_end_perfect_recovery():
    tgrid, _ = make_grids(100, 50e-6)
    template = default_template(tgrid)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    truth = ground_truth_classification(waveform.samples, template)
    curve = roc_curve(waveform.samples, template, truth)
    assert auc(curve).value == 1.0


def test_roc_serialization(tmp_path):
    curve = RocCurve(np.array([(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)]))
    csv_path = tmp_path / "roc.csv"
    roc_to_csv(curve, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "fallout,recall"
    assert len(lines) == 4

    json_path = tmp_path / "auc.json"
    auc_to_json(AucScore(0.625), json_path)
    assert json.loads(json_path.read_text()) == {"auc": 0.625}
