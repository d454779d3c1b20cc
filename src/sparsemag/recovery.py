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
operator; a measurement-count sweep is one block on one matrix.  Each
iteration makes two products with the operator: the residual D (A x - m) at
the new iterate x, computed afresh so that the objective is exact, and the
forward step w = x - 2 step D (A x - m) A from x.  The step point at the
momentum point y = x + mu (x - x_old) is never formed from y: the forward
step is affine in x, so it is w + mu (w - w_old), and w is the one point
carried from one iteration to the next.  A problem that stalls leaves
before its forward step is taken.  Both products take a C-contiguous
operand: the gradient step 2 step A, and a C-order copy of A^T for the
residual, made once per block.  BLAS then runs both as NN matrix
products, which OpenBLAS 0.3.31 serves from its small-matrix kernels
without packing; through the transposed view the residual was an NT
product, up to 1.7x slower.  A block of one keeps the view: its products
are matrix-vector products, and A x through the view is the scalar loop's
product bit for bit.  The loop writes
into work arrays allocated once per block, soft-thresholds as
a - min(a, tau), which is max(a - tau, 0) bit for bit, and keeps the rows
that go on with ``take``.  Each problem stops once its objective changes by
at most ``rel_tolerance`` relative to the larger of the last two values,
counting from the objective at zero, and then leaves the block while the
others go on.  The block comes back as one :class:`RecoveryResult` of
arrays, one row per problem; only each problem's last objective is kept.
:func:`fista_solve` is a block of one with scalar fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grids import write_csv_columns, write_text

DEFAULT_LAMBDA = 1.04  # regularisation weight (Hz) tuned on simulated training data


@dataclass
class LassoProblem:
    """Subsampled linear system with l1 regularisation, a plain record:
    :func:`fista_solve` checks it, once, as a block of one."""

    operator: np.ndarray
    measurements: np.ndarray
    lam: float


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
    config = config or FistaConfig()
    operator, measurements, lam, mask = _checked_block(
        operator, measurements, lams, row_masks
    )
    count, n_unknowns = lam.size, operator.shape[1]
    # 0.9 / (2 sigma_max^2), sigma_max = 1/sqrt(2N); 0.9 * N rounds differently
    step = 0.9 / (2.0 * (1.0 / np.sqrt(2.0 * (n_unknowns + 1))) ** 2)
    # One row per column of the block: row j of x is column j's waveform, so
    # per-column sums and the rows dropped on stalling stay contiguous.  tau
    # and m are stored per row: same-shape arithmetic beats broadcasting.
    # both products NN on C-contiguous operands; a lone row keeps the view
    operator_t = operator.T if count == 1 else np.ascontiguousarray(operator.T)
    gradient_step = (2.0 * step) * operator  # the gradient is 2 r A
    with np.errstate(over="ignore"):  # a huge lambda's threshold is inf: x = 0
        tau = np.repeat((step * lam)[:, None], n_unknowns, axis=1)

    active = np.arange(count)
    # D (x A^T - m) at x = 0, and the forward step from there, which is the
    # first step point (y = x)
    targets = np.repeat(measurements[None], count, axis=0)
    residual = -targets if mask is None else -targets * mask
    previous = np.vecdot(residual, residual)  # the objective at x = 0
    x = np.zeros((count, n_unknowns))
    forward = np.subtract(x, np.matmul(residual, gradient_step))
    step_point = forward.copy()
    theta = 1.0
    waveforms = np.empty((count, n_unknowns))
    iterations = np.full(count, config.max_iters)
    converged = np.zeros(count, dtype=bool)
    finals = np.empty(count)
    magnitude, forward_next = np.empty((2, count, n_unknowns))

    for iteration in range(1, config.max_iters + 1):
        # soft_threshold, keeping |x| for the l1 term; a - min(a, tau) = max(a - tau, 0)
        np.abs(step_point, out=magnitude)
        np.subtract(magnitude, np.minimum(magnitude, tau, out=x), out=magnitude)
        np.copysign(magnitude, step_point, out=x)
        np.subtract(np.matmul(x, operator_t, out=residual), targets, out=residual)
        if mask is not None:
            residual *= mask

        squares, l1 = np.vecdot(residual, residual), np.add.reduce(magnitude, axis=1)
        # objectives are non-negative, so max(|a|, |b|) is max(a, b), and at
        # a = b = 0 the rule stalls.  A lone problem (every single solve)
        # adds up its objective and evaluates the rule in Python floats: the
        # same IEEE operations, without the seven ufunc calls that the block
        # form makes on one-element arrays
        if active.size == 1:
            a, b = previous.item(), squares.item() + lam.item() * l1.item()
            value = np.array([b])
            stalled = np.array([abs(a - b) <= config.rel_tolerance * max(a, b)])
        else:
            value = squares + lam * l1
            stalled = abs(previous - value) <= config.rel_tolerance * np.maximum(previous, value)
        previous = value
        if np.count_nonzero(stalled):
            gone, keep = stalled.nonzero()[0], (~stalled).nonzero()[0]
            done = active.take(gone)
            waveforms[done] = x.take(gone, axis=0)
            iterations[done] = iteration
            converged[done] = True
            finals[done] = previous.take(gone)
            active, previous, lam, tau, targets, x, residual, forward, mask = (
                v if v is None else v.take(keep, axis=0)
                for v in (active, previous, lam, tau, targets, x, residual, forward, mask)
            )
            if keep.size == 0:
                break
            step_point, magnitude, forward_next = (
                v[: keep.size] for v in (step_point, magnitude, forward_next)
            )

        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        momentum = (theta - 1.0) / theta_next
        # the forward step from x; the step at y = x + momentum (x - x_old) is
        # the same combination of the forward steps, as D and A are linear
        np.subtract(x, np.matmul(residual, gradient_step, out=forward_next), out=forward_next)
        np.subtract(forward_next, forward, out=step_point)
        np.add(forward_next, np.multiply(momentum, step_point, out=step_point), out=step_point)
        forward, forward_next, theta = forward_next, forward, theta_next
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
    write_csv_columns(path, ["time_s", "recovered_hz"], times, result.waveform)


def result_metadata_to_json(result: RecoveryResult, lam: float, path):
    metadata = {
        "lambda": lam,
        "iterations_used": result.iterations_used,
        "converged": result.converged,
        "final_objective": result.final_objective,
    }
    write_text(path, json.dumps(metadata))
