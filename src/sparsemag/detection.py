"""Matched-filter detection grading: ROC curves and AUC.

Cross-correlation uses zero padding past the end of the signal, the
ground-truth classification thresholds the matched output at half the
template energy, and ROC thresholds lie between consecutive distinct scores
plus sentinels below and above them all, which makes the trapezoidal AUC
exact for the resulting staircase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid, write_csv_rows


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


def matched_filter(signal, template: Template) -> np.ndarray:
    """Scores g_j = sum_k signal[k + j] * template[k], zero-padded."""
    signal = np.asarray(signal, dtype=float)
    if template.samples.size > signal.size:
        raise ValueError("template longer than signal")
    scores = np.correlate(signal, template.samples, mode="full")
    return scores[template.samples.size - 1 :]


def ground_truth_classification(ground_truth, template: Template) -> np.ndarray:
    """Int 0/1 labels: 1 wherever the matched output reaches half the
    template energy."""
    scores = matched_filter(ground_truth, template)
    return (scores >= template.energy / 2.0).astype(int)


def positive_labels(labels) -> np.ndarray:
    """Positive mask of 0/1 ground-truth labels; ``ValueError`` unless both
    classes occur, as recall and fallout each need one of them."""
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary")
    positive = labels == 1
    if not positive.any():
        raise ValueError("degenerate truth: no positives, recall undefined")
    if positive.all():
        raise ValueError("degenerate truth: no negatives, fallout undefined")
    return positive


def roc_curve(recovered, template: Template, labels) -> np.ndarray:
    """ROC of the recovered signal's matched output against ground-truth
    0/1 labels, swept over all distinct score values.

    Raises ``ValueError`` when the truth has no positives (recall undefined)
    or no negatives (fallout undefined).
    """
    return roc_curve_from_scores(matched_filter(recovered, template), labels)


def roc_curve_from_scores(scores, labels) -> np.ndarray:
    """ROC from raw detection scores (one per location) and 0/1 labels: an
    (n, 2) array of (fallout, recall) points sorted by fallout, from (0, 0)
    to (1, 1).

    A threshold between consecutive distinct scores flags every location
    scoring at or above the upper one, so the true- and false-positive counts
    at each threshold are reversed cumulative sums of the per-score counts.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != np.shape(labels):
        raise ValueError(f"{scores.shape} scores do not match {np.shape(labels)} labels")
    positive = positive_labels(labels)
    if not np.all(np.isfinite(scores)):
        raise ValueError("detection scores have non-finite values")
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
    return np.column_stack((fp[::-1] / n_negative, tp[::-1] / n_positive))


def auc(curve) -> float:
    """Trapezoidal area under an (n, 2) array of (fallout, recall) points."""
    pts = np.asarray(curve, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def roc_to_csv(curve, path):
    write_csv_rows(path, ["fallout", "recall"], curve)


def auc_to_json(value: float, path):
    with open(path, "w") as fh:
        json.dump({"auc": value}, fh)
