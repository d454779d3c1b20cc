"""FISTA solver for the LASSO sparse-recovery problem.

Minimises ||A x - m||_2^2 + lambda ||x||_1 (no 1/2 on the data term).  The
gradient Lipschitz constant is therefore 2 sigma_max^2; with
sigma_max <= 1/sqrt(2N) for any row-subsampled DST the largest safe step is
N, and the solver keeps a 0.9 margin.

One engine, :func:`fista_solve_block`, runs every solve (Beck & Teboulle,
SIAM J. Imaging Sci. 2009).  It iterates a block of problems that share one
operator as a matrix, one row per problem, each with its own lambda and
optionally its own row mask.  A masked row contributes zero residual, so a
mask on the full DST matrix solves the same problem as the row-subsampled
operator; a measurement-count sweep is one block on one matrix.  Each problem
keeps the stopping rule of a single solve: it stops once its objective
changes by at most ``rel_tolerance`` relative to the larger of the last two
values, counting from the objective at zero, and then leaves the block while
the others go on.  The block comes back as one :class:`RecoveryResult` of
arrays, one row per problem; only each problem's last objective is kept.
:func:`fista_solve` is a block of one with scalar fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grids import write_csv_rows, write_text

DEFAULT_LAMBDA = 1.04  # regularisation weight (Hz) tuned on simulated training data


@dataclass
class LassoProblem:
    """Subsampled linear system with l1 regularisation."""

    operator: np.ndarray
    measurements: np.ndarray
    lam: float

    def __post_init__(self):
        self.operator = np.asarray(self.operator, dtype=float)
        self.measurements = np.asarray(self.measurements, dtype=float)
        _checked_block(self.operator, self.measurements, [self.lam], None)


@dataclass
class FistaConfig:
    max_iters: int = 5000
    rel_tolerance: float = 1e-8


@dataclass
class RecoveryResult:
    """One solve, or a block of solves with a leading problem axis on every
    field.  ``final_objective`` is the last objective computed: at the stall,
    or at ``max_iters``."""

    waveform: np.ndarray
    iterations_used: int | np.ndarray
    converged: bool | np.ndarray
    final_objective: float | np.ndarray


def fista_solve(problem: LassoProblem, config: FistaConfig | None = None) -> RecoveryResult:
    """Plain (non-monotone) FISTA from a zero start: a block of one.

    Non-convergence within max_iters is reported via ``converged=False``,
    never raised.
    """
    block = fista_solve_block(
        problem.operator, problem.measurements, [problem.lam], config=config
    )
    return RecoveryResult(
        block.waveform[0], int(block.iterations_used[0]), bool(block.converged[0]),
        float(block.final_objective[0]),
    )


def fista_solve_block(
    operator,
    measurements,
    lams,
    row_masks=None,
    config: FistaConfig | None = None,
) -> RecoveryResult:
    """Solve one LASSO per column of a block, all on one shared operator.

    Column j minimises ||D_j (A x - m)||_2^2 + lams[j] ||x||_1, where D_j keeps
    the rows ``row_masks[j]`` (every row when ``row_masks`` is None).  A
    masked row adds zero residual and zero gradient, so a masked column solves
    the same problem as the row-subsampled operator.  Every column runs the
    update and stopping rule of a single solve; ``theta`` depends only on the
    iteration count, so the columns share it.  A column that stalls is written
    out and dropped from the working arrays while the rest go on.  The result
    holds one row per column: ``waveform`` is (count, N - 1), the other fields
    are (count,).
    """
    if config is None:
        config = FistaConfig()
    operator, measurements, lams, mask = _checked_block(
        operator, measurements, lams, row_masks
    )
    count, n_unknowns = lams.size, operator.shape[1]
    # 0.9 / (2 sigma_max^2), sigma_max = 1/sqrt(2N); 0.9 * N rounds differently
    step = 0.9 / (2.0 * (1.0 / np.sqrt(2.0 * (n_unknowns + 1))) ** 2)
    # One row per column of the block: row j of x is column j's waveform, so
    # per-column sums and the rows dropped on stalling stay contiguous.  The
    # targets and thresholds are stored per row because same-shape arithmetic
    # costs less than broadcasting, which matters for a block of one.
    operator_t = operator.T
    targets = np.tile(measurements, (count, 1))
    lam = lams
    with np.errstate(over="ignore"):  # a huge lambda's threshold is inf: x = 0
        tau = np.repeat((step * lam)[:, None], n_unknowns, axis=1)
    # 2 * step * g rounds exactly like step * (2 * g): the factor is a power of 2
    double_step = 2.0 * step

    def objectives(x, magnitude):
        residual = x @ operator_t - targets
        if mask is not None:
            residual *= mask
        return np.vecdot(residual, residual) + lam * np.add.reduce(magnitude, axis=1)

    active = np.arange(count)
    x = np.zeros((count, n_unknowns))
    y = x.copy()
    theta = 1.0
    previous = objectives(x, x)  # x = 0, so |x| is x
    waveforms = np.empty((count, n_unknowns))
    iterations = np.full(count, config.max_iters)
    converged = np.zeros(count, dtype=bool)
    finals = np.empty(count)

    for iteration in range(1, config.max_iters + 1):
        residual = y @ operator_t - targets
        if mask is not None:
            residual *= mask
        step_point = y - double_step * (residual @ operator)
        # soft_threshold, keeping |x_next| for the l1 term
        magnitude = np.maximum(np.abs(step_point) - tau, 0.0)
        x_next = np.sign(step_point) * magnitude
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        y = x_next + ((theta - 1.0) / theta_next) * (x_next - x)
        x, theta = x_next, theta_next

        value = objectives(x, magnitude)
        # objectives are non-negative, so max(|a|, |b|) is max(a, b).  A lone
        # problem (every single solve) evaluates the rule in Python floats:
        # the same IEEE operations, without six ufunc calls on one-element
        # arrays, which would cost a block of one 15 % per iteration
        if active.size == 1:
            a, b = float(previous[0]), float(value[0])
            stalled = np.array([abs(a - b) <= config.rel_tolerance * max(a, b, 1e-300)])
        else:
            scale = np.maximum(np.maximum(previous, value), 1e-300)
            stalled = np.abs(previous - value) <= config.rel_tolerance * scale
        previous = value
        if np.count_nonzero(stalled):
            done = active[stalled]
            waveforms[done] = x[stalled]
            iterations[done] = iteration
            converged[done] = True
            finals[done] = previous[stalled]
            going = ~stalled
            active, previous, lam = active[going], previous[going], lam[going]
            x, y, targets, tau = x[going], y[going], targets[going], tau[going]
            if mask is not None:
                mask = mask[going]
            if active.size == 0:
                break
    waveforms[active] = x
    finals[active] = previous
    return RecoveryResult(waveforms, iterations, converged, finals)


def _checked_block(operator, measurements, lams, row_masks):
    """Validate a block's inputs; masks come back as a float 0/1 matrix."""
    operator = np.asarray(operator, dtype=float)
    measurements = np.asarray(measurements, dtype=float)
    lams = np.asarray(lams, dtype=float)
    if operator.ndim != 2:
        raise ValueError("operator must be a matrix")
    if not np.all(np.isfinite(operator)):
        raise ValueError("operator has non-finite entries")
    if measurements.shape != (operator.shape[0],):
        raise ValueError(
            f"measurement length {measurements.shape} does not match "
            f"operator rows {operator.shape[0]}"
        )
    if not np.all(np.abs(measurements) < 1e100):  # so that squares cannot overflow
        raise ValueError("measurements have non-finite values or values beyond 1e100")
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lambdas must be a non-empty vector")
    if not np.all(np.isfinite(lams)) or np.any(lams <= 0):
        raise ValueError("every lambda must be positive and finite")
    if row_masks is None:
        return operator, measurements, lams, None
    masks = np.asarray(row_masks)
    if masks.shape != (lams.size, operator.shape[0]):
        raise ValueError(
            f"row mask shape {masks.shape} does not match "
            f"({lams.size} columns, {operator.shape[0]} operator rows)"
        )
    return operator, measurements, lams, masks.astype(bool).astype(float)


def result_to_csv(result: RecoveryResult, times, path):
    """Write the recovered waveform as ``time_s,recovered_hz`` rows."""
    write_csv_rows(path, ["time_s", "recovered_hz"], zip(times, result.waveform))


def result_metadata_to_json(result: RecoveryResult, lam: float, path):
    metadata = {
        "lambda": lam,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "final_objective": result.final_objective,
    }
    write_text(path, json.dumps(metadata))
