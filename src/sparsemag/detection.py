"""Matched-filter detection grading: ROC curves and AUC.

Cross-correlation uses zero padding past the end of the signal, the
ground-truth classification thresholds the matched output at half the
template energy, and ROC thresholds lie between consecutive distinct scores
plus sentinels below and above them all, which makes the trapezoidal AUC
exact for the resulting staircase.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid


@dataclass
class Template:
    """Expected single-pulse shape, starting at relative index 0 (Hz)."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("template must be a non-empty vector")
        if not np.any(self.samples):
            raise ValueError("template must be nonzero")

    @property
    def energy(self) -> float:
        return float(self.samples @ self.samples)


def default_template(
    grid: TimeGrid, amplitude: float = 1000.0, pulse_duration: float = 200e-6
) -> Template:
    """Single-cycle sine pulse sampled from relative index 0.

    Only the shape matters for ROC ordering; the amplitude cancels under the
    threshold sweep.
    """
    n_samples = max(2, int(round(pulse_duration / grid.dt)))
    k = np.arange(n_samples)
    return Template(amplitude * np.sin(2.0 * np.pi * k * grid.dt / pulse_duration))


@dataclass
class Classification:
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be binary")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass
class RocCurve:
    """(fallout, recall) points sorted by fallout; includes (0,0) and (1,1)."""

    points: np.ndarray


@dataclass(frozen=True)
class AucScore:
    value: float


def matched_filter(signal, template: Template) -> np.ndarray:
    """Scores g_j = sum_k signal[k + j] * template[k], zero-padded."""
    signal = np.asarray(signal, dtype=float)
    if template.samples.size > signal.size:
        raise ValueError("template longer than signal")
    scores = np.correlate(signal, template.samples, mode="full")
    return scores[template.samples.size - 1 :]


def ground_truth_classification(ground_truth, template: Template) -> Classification:
    """Label 1 wherever the matched output reaches half the template energy."""
    scores = matched_filter(ground_truth, template)
    return Classification((scores >= template.energy / 2.0).astype(int))


def confusion_counts(predicted: Classification, truth: Classification) -> ConfusionCounts:
    p = predicted.labels
    t = truth.labels
    if p.shape != t.shape:
        raise ValueError("label vectors differ in length")
    return ConfusionCounts(
        tp=int(np.sum(p * t)),
        fp=int(np.sum(p * (1 - t))),
        fn=int(np.sum((1 - p) * t)),
        tn=int(np.sum((1 - p) * (1 - t))),
    )


def roc_curve(recovered, template: Template, truth: Classification) -> RocCurve:
    """ROC of the recovered signal's matched output against a ground-truth
    classification, swept over all distinct score values.

    Raises ``ValueError`` when the truth has no positives (recall undefined)
    or no negatives (fallout undefined).
    """
    n_positive = int(truth.labels.sum())
    n_negative = int(truth.labels.size - n_positive)
    if n_positive == 0:
        raise ValueError("degenerate truth: no positives, recall undefined")
    if n_negative == 0:
        raise ValueError("degenerate truth: no negatives, fallout undefined")

    scores = matched_filter(recovered, template)
    return roc_curve_from_scores(scores, truth)


def roc_curve_from_scores(scores, truth: Classification) -> RocCurve:
    """ROC from raw detection scores (one per location).

    A threshold between consecutive distinct scores flags every location
    scoring at or above the upper one, so the true- and false-positive counts
    at each threshold are reversed cumulative sums of the per-score counts.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != truth.labels.shape:
        raise ValueError(
            f"{scores.shape} scores do not match {truth.labels.shape} labels"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("detection scores have non-finite values")
    positive = truth.labels == 1
    n_positive = int(positive.sum())
    n_negative = int(positive.size - n_positive)
    distinct, inverse = np.unique(scores, return_inverse=True)

    def at_or_above(selected):
        # entry i counts the selected scores >= distinct[i]; the appended 0 is
        # the threshold above every score, which flags nothing
        counts = np.bincount(inverse[selected], minlength=distinct.size)
        return np.append(np.cumsum(counts[::-1])[::-1], 0)

    tp = at_or_above(positive)
    fp = at_or_above(~positive)
    return RocCurve(np.column_stack((fp[::-1] / n_negative, tp[::-1] / n_positive)))


def auc(curve: RocCurve) -> AucScore:
    """Trapezoidal area under the (fallout, recall) curve."""
    pts = np.asarray(curve.points, dtype=float)
    return AucScore(float(np.trapezoid(pts[:, 1], pts[:, 0])))


def roc_to_csv(curve: RocCurve, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fallout", "recall"])
        for fallout, recall in curve.points:
            writer.writerow([repr(float(fallout)), repr(float(recall))])


def auc_to_json(score: AucScore, path):
    with open(path, "w") as fh:
        json.dump({"auc": score.value}, fh)
