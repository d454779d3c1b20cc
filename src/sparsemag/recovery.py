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
the others go on.  :func:`fista_solve` is a block of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import write_csv_rows
from .transform import operator_norm_bound


def default_lambda() -> float:
    """Regularisation weight (Hz) tuned on simulated training data."""
    return 1.04


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


def safe_step(n_grid: int) -> float:
    """The FISTA step: the largest safe step 1/(2 sigma_max^2) = N, with a
    0.9 margin."""
    return 0.9 / (2.0 * operator_norm_bound(n_grid) ** 2)


@dataclass
class RecoveryResult:
    waveform: np.ndarray
    objective_trace: np.ndarray = field(repr=False)
    iterations_used: int
    converged: bool


def fista_solve(problem: LassoProblem, config: FistaConfig | None = None) -> RecoveryResult:
    """Plain (non-monotone) FISTA from a zero start: a block of one.

    Non-convergence within max_iters is reported via ``converged=False``,
    never raised.
    """
    (result,) = fista_solve_block(
        problem.operator, problem.measurements, [problem.lam], config=config
    )
    return result


def fista_solve_block(
    operator,
    measurements,
    lams,
    row_masks=None,
    config: FistaConfig | None = None,
) -> list[RecoveryResult]:
    """Solve one LASSO per column of a block, all on one shared operator.

    Column j minimises ||D_j (A x - m)||_2^2 + lams[j] ||x||_1, where D_j keeps
    the rows ``row_masks[j]`` (every row when ``row_masks`` is None).  A
    masked row adds zero residual and zero gradient, so a masked column solves
    the same problem as the row-subsampled operator.  Every column runs the
    update and stopping rule of a single solve; ``theta`` depends only on the
    iteration count, so the columns share it.  A column that stalls is written
    out and dropped from the working arrays while the rest go on.
    """
    if config is None:
        config = FistaConfig()
    operator, measurements, lams, mask = _checked_block(
        operator, measurements, lams, row_masks
    )
    step = safe_step(operator.shape[1] + 1)
    count, n_unknowns = lams.size, operator.shape[1]
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
    trace_columns, trace_values = [active], [previous]
    waveforms = np.empty((count, n_unknowns))
    iterations = np.full(count, config.max_iters)
    converged = np.zeros(count, dtype=bool)

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
        trace_columns.append(active)
        trace_values.append(value)
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
        if np.count_nonzero(stalled):
            done = active[stalled]
            waveforms[done] = x[stalled]
            iterations[done] = iteration
            converged[done] = True
            going = ~stalled
            active, value, lam = active[going], value[going], lam[going]
            x, y, targets, tau = x[going], y[going], targets[going], tau[going]
            if mask is not None:
                mask = mask[going]
            if active.size == 0:
                break
        previous = value
    waveforms[active] = x

    # each iteration appended the objectives of the columns then active, in
    # column order; a stable sort by column regroups them into per-column
    # traces in iteration order
    columns = np.concatenate(trace_columns)
    order = np.argsort(columns, kind="stable")
    bounds = np.cumsum(np.bincount(columns, minlength=count))[:-1]
    traces = np.split(np.concatenate(trace_values)[order], bounds)
    return [
        RecoveryResult(
            waveform=waveforms[j],
            objective_trace=traces[j],
            iterations_used=int(iterations[j]),
            converged=bool(converged[j]),
        )
        for j in range(count)
    ]


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
    with open(path, "w") as fh:
        json.dump(
            {
                "lambda": lam,
                "iterations_used": result.iterations_used,
                "converged": result.converged,
                "final_objective": float(result.objective_trace[-1]),
            },
            fh,
        )
