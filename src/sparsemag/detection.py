"""Matched-filter detection grading: ROC curves and AUC.

Cross-correlation uses zero padding past the end of the signal, the
ground-truth classification thresholds the matched output at half the
template energy, and ROC thresholds lie between consecutive distinct scores
plus sentinels below and above them all, which makes the trapezoidal AUC
exact for the resulting staircase.  A block of score rows is graded at once
(``auc_from_scores``); a lone row (``roc_curve_from_scores``) sorts once and
fills its curve directly, the same points as the block's row bit for bit,
at about half the cost of a block of one.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .grids import PULSE_AMPLITUDE, PULSE_DURATION, TimeGrid, write_csv_columns, write_text


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


@functools.lru_cache(maxsize=4)
def default_template(grid: TimeGrid) -> Template:
    """Single-cycle sine pulse of ``PULSE_AMPLITUDE`` and ``PULSE_DURATION``,
    sampled from relative index 0, built once per grid and shared, so its
    samples are read-only.

    Only the shape matters for ROC ordering; the amplitude cancels under the
    threshold sweep.
    """
    n_samples = np.maximum(2.0, np.round(PULSE_DURATION / grid.dt))
    if not n_samples <= grid.n_grid - 1:  # also inf, before any allocation
        raise ValueError(
            f"template does not fit the grid: pulse_duration {PULSE_DURATION} s / dt "
            f"{grid.dt} s is {n_samples:.4g} samples, the grid has N - 1 = {grid.n_grid - 1}"
        )
    k = np.arange(int(n_samples))
    template = Template(PULSE_AMPLITUDE * np.sin(2.0 * np.pi * k * grid.dt / PULSE_DURATION))
    template.samples.flags.writeable = False
    return template


def matched_filter(signal, template: Template) -> np.ndarray:
    """Scores g_j = sum_k signal[..., k + j] * template[k], zero-padded, of a
    signal, or of each row of a block: ``np.correlate(row, template,
    "full")[len(template) - 1:]``, one row at a time."""
    signal = np.asarray(signal, dtype=float)
    taps, n = template.samples, signal.shape[-1]
    if taps.size > n:
        raise ValueError("template longer than signal")
    scores = np.empty(signal.shape)
    for row, out in zip(signal.reshape(-1, n), scores.reshape(-1, n)):
        out[...] = np.correlate(row, taps, mode="full")[taps.size - 1 :]
    return scores


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
    if positive.all() or not positive.any():
        missing = "negatives, fallout" if positive.any() else "positives, recall"
        raise ValueError(f"degenerate truth: no {missing} undefined: a location is positive where "
                         "the truth's matched output reaches half the energy of the template "
                         f"({PULSE_AMPLITUDE:g} Hz, {PULSE_DURATION * 1e6:g} us by default)")
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
    to (1, 1).  A threshold between consecutive distinct scores flags every
    location scoring at or above the upper one.  The row's points are
    ``_roc_staircases``'s, filled in from one sort of the row."""
    scores = np.asarray(scores, dtype=float)
    positive = _checked_positive(scores[None], labels)
    order = np.argsort(scores)[::-1]
    ordered = scores[order]
    ranks = np.flatnonzero(np.append(ordered[:-1] != ordered[1:], True))
    tp = positive[order].cumsum()[ranks]
    n_positive, curve = int(positive.sum()), np.zeros((ranks.size + 1, 2))
    curve[1:, 0] = (ranks + 1 - tp) / (positive.size - n_positive)
    curve[1:, 1] = tp / n_positive
    return curve


def _checked_positive(scores, labels) -> np.ndarray:
    """The positive mask of ``labels``, once ``scores`` is a (B, n) block of
    finite scores, one per label in each row."""
    if scores.ndim != 2 or scores.shape[1:] != np.shape(labels):
        raise ValueError(f"{scores.shape[1:]} scores do not match {np.shape(labels)} labels")
    positive = positive_labels(labels)
    if not np.isfinite(scores).all():
        raise ValueError("detection scores have non-finite values")
    return positive


def _roc_staircases(scores, labels):
    """(fallout, recall, lengths) of each row of a (B, n) score block against
    shared 0/1 labels, row b's ROC being its first lengths[b] points: the
    counts at the last entry of each tied group of the row sorted in
    descending order, packed left after the (0, 0) above every score."""
    positive = _checked_positive(scores, labels)
    n_positive = int(positive.sum())
    order = np.argsort(scores, axis=1)[:, ::-1]
    ordered = np.take_along_axis(scores, order, axis=1)
    ends = np.ones(scores.shape, dtype=bool)
    ends[:, :-1] = ordered[:, :-1] != ordered[:, 1:]
    columns = ends.cumsum(axis=1)
    rows, ranks = np.nonzero(ends)
    tp = positive[order].cumsum(axis=1)[rows, ranks]
    fallout, recall = np.zeros((2, len(scores), scores.shape[1] + 1))
    steps = rows, columns[rows, ranks]
    fallout[steps] = (ranks + 1 - tp) / (positive.size - n_positive)
    recall[steps] = tp / n_positive
    return fallout, recall, columns[:, -1] + 1


def auc_from_scores(scores, labels) -> np.ndarray:
    """AUC of each row of a (B, n) score block against shared 0/1 labels,
    bit for bit ``auc(roc_curve_from_scores(row, labels))``: each row sums
    exactly its own ``np.trapezoid`` terms."""
    x, y, lengths = _roc_staircases(np.asarray(scores, dtype=float), labels)
    terms = (x[:, 1:] - x[:, :-1]) * (y[:, 1:] + y[:, :-1]) / 2.0
    areas = [np.add.reduce(row[: length - 1]) for row, length in zip(terms, lengths.tolist())]
    return np.array(areas)


def auc(curve) -> float:
    """Trapezoidal area under an (n, 2) array of (fallout, recall) points."""
    pts = np.asarray(curve, dtype=float)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def roc_to_csv(curve, path):
    write_csv_columns(path, ["fallout", "recall"], *np.transpose(curve))


def auc_to_json(value: float, path):
    write_text(path, json.dumps({"auc": value}))
