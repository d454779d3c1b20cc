"""The shot sampler as first written, kept as oracles for the closed forms.

* ``FX``, ``FY``, ``FZ`` and ``STATE_MINUS_Z``: the spin-1 operators and the
  prepared state |m=-1> in the Fz basis (m = +1, 0, -1), hbar = 1.
* ``spin1_matrix`` and ``spin1_rotation``: the 3x3 spin-1 rotation of an
  SU(2) pair, and exp(-i angle n.F); ``second_frame_state`` applies
  exp(+i Omega T Fx) to a state's amplitudes; ``expectation`` is <psi|O|psi>.
* ``magnus_coefficients``: the first-order Magnus quadratures of any signal
  by composite Simpson quadrature.
* ``magnus_shot``: one first-order Magnus shot at index k, from the public
  quadratures, prediction and readout, with its drift drawn on stream
  (noise.seed, shot_seed, 0) as the unitary shot draws it.
* ``readout_probabilities`` and ``readout``: the pi/2 readout as a 3x3
  ``spin1_rotation`` applied to the state, populations |psi|^2 normalised.
* ``simulate_measurements``: the per-shot loop, one ``magnus_state`` rotation
  and one matrix readout per shot, with the atom-count draw written out.
* ``derive_seed``, ``shot_drift`` and ``count_atoms``: the per-shot seeds and
  noise streams on the key layouts and tags of ``sparsemag.seeds``, each
  built directly on ``np.random.SeedSequence`` and ``default_rng``, one key
  at a time; the package draws them from ``seeds.streams``.
* ``step_unitaries`` and ``evolve_pairwise``: the stepped unitary shot as
  3x3 complex matrices, one spin-1 rotation per step, multiplied pairwise.
* ``evolve_su2``: the stepped shot's SU(2) pair product with a per-step
  array for both rates and two ``concatenate`` calls per level; the package
  product must give the same bits.
* ``soft_threshold`` and ``objective``: the LASSO pieces of the scalar FISTA
  loop, which the block engine inlines.
* ``fista_solve_block``: the block engine with a fresh array for every
  update, a soft threshold of ``np.maximum(|a| - tau, 0.0)`` and boolean-mask
  compaction; the package engine writes into reused arrays and must give
  the same bits.
* ``y_form_fista_solve_block``: the engine that carried the momentum point
  y and its residual, with reused arrays; the package engine carries the
  forward step instead and agrees with it to rounding.
* ``random_subsample``: one subset's partial Fisher-Yates shuffle on a numpy
  pool, seeded with ``default_rng(seed)``, returned as sorted indices.
* ``roc_curve_from_scores``: one row's ROC from ``np.unique`` and per-score
  counts, graded by ``detection.auc``.
* ``sweep_sample_count``: the sample-count sweep with one subset draw and one
  ROC per (m, rep), around the same block solves.
* ``window_mean``: the sine interpolant's window means with one sinc row per
  window.
* ``csv_rows_text``: the artefact CSV text as ``csv.writer`` wrote it, one row
  at a time, integers as they are and any other value as the repr of a float.
"""

import csv
import io
import math

import numpy as np
from scipy.integrate import simpson

from sparsemag import detection, experiments, recovery, seeds, sensor
from sparsemag.recovery import FistaConfig, RecoveryResult, _checked_block
from sparsemag.transform import SubsampleSet, apply_dst, dst_matrix, sine_interpolant

SQRT2 = np.sqrt(2.0)
FX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
FY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
FZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
STATE_MINUS_Z = np.array([0.0, 0.0, 1.0], dtype=complex)


def spin1_matrix(alpha, beta):
    """The spin-1 rotation of the SU(2) pair (alpha, beta), in the Fz basis."""
    ac, bc = np.conj(alpha), np.conj(beta)
    return np.array([
        [alpha**2, -SQRT2 * alpha * bc, bc**2],
        [SQRT2 * alpha * beta, abs(alpha) ** 2 - abs(beta) ** 2, -SQRT2 * ac * bc],
        [beta**2, SQRT2 * ac * beta, ac**2],
    ])


def spin1_rotation(axis, angle):
    """exp(-i * angle * axis.F) for a unit 3-vector axis."""
    nx, ny, nz = np.sin(angle / 2.0) * np.asarray(axis, dtype=float)
    return spin1_matrix(np.cos(angle / 2.0) - 1j * nz, ny - 1j * nx)


def second_frame_state(psi, params):
    """Rotating-frame amplitudes moved into the second rotating frame,
    psi_rr = exp(+i Omega T Fx) psi_rot."""
    angle = 2.0 * np.pi * params.rabi_hz * params.duration
    return spin1_rotation([1.0, 0.0, 0.0], -angle) @ psi


def expectation(psi, operator):
    """<psi| operator |psi> of an amplitude vector, as a float."""
    return float(np.real(np.vdot(psi, operator @ psi)))


def magnus_coefficients(signal, rabi_hz, duration, step=None):
    """(a, b): a = 2 pi * integral sin(Omega t) gamma_b(t) dt and
    b = 2 pi * integral cos(Omega t) gamma_b(t) dt by composite Simpson."""
    if step is None:
        step = min(1.0 / (50.0 * rabi_hz), duration / 1000.0)
    n_points = max(8, int(np.ceil(duration / step)))
    if n_points % 2 == 1:
        n_points += 1
    t = np.linspace(0.0, duration, n_points + 1)
    omega = 2.0 * np.pi * rabi_hz
    values = np.asarray(signal(t), dtype=float)
    a = 2.0 * np.pi * simpson(np.sin(omega * t) * values, x=t)
    b = 2.0 * np.pi * simpson(np.cos(omega * t) * values, x=t)
    return float(a), float(b)


def magnus_shot(waveform, k, noise, shot_seed=0):
    """One first-order Magnus shot at index k, in Hz; ``noise=None`` is the
    noiseless limit."""
    duration = waveform.grid.duration
    drift = 0.0 if noise is None else shot_drift(noise, shot_seed)
    a, b = sensor.magnus_quadratures(sine_interpolant(waveform).coefs, duration, drift)
    fx = sensor.magnus_prediction(a[k - 1], b[k - 1])
    return sensor.readout_coefficient(fx, duration, noise, shot_seed)


def readout_probabilities(psi):
    """Populations after the ideal pi/2 pulse about the second frame's y axis."""
    psi = spin1_rotation([0.0, 1.0, 0.0], 0.5 * np.pi) @ psi
    p = np.abs(psi) ** 2
    return p / p.sum()


def derive_seed(master_seed, *indices):
    return int(np.random.SeedSequence((master_seed, *indices)).generate_state(1)[0])


def shot_drift(noise, shot_seed):
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, seeds.DRIFT)))
    return float(rng.normal(0.0, noise.bias_drift_std_hz))


def count_atoms(probs, noise, shot_seed):
    """Atom counts (n_plus, n_zero, n_minus) of one shot."""
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, seeds.COUNTS)))
    total = max(1, int(rng.poisson(noise.mean_atoms)))
    return tuple(int(c) for c in rng.multinomial(total, probs))


def extract_coefficient(counts, duration):
    """Sine-coefficient estimate (n_minus - n_plus) / (2 pi T total), in Hz."""
    n_plus, n_zero, n_minus = counts
    return (n_minus - n_plus) / (2.0 * np.pi * duration * (n_plus + n_zero + n_minus))


def readout(psi, params, noise, shot_seed):
    """Second-frame transform, matrix pi/2 pulse, then atom counting."""
    norm_sq = float(np.real(np.vdot(psi, psi)))
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"state not normalised: |psi|^2 = {norm_sq}")
    probs = readout_probabilities(second_frame_state(psi, params))
    return count_atoms(probs, noise, shot_seed)


def simulate_measurements(waveform, subsample, noise, master_seed=0):
    """One Magnus shot per selected index, each through its own rotations."""
    n_grid = waveform.grid.n_grid
    duration = waveform.grid.duration
    if subsample is None:
        subsample = SubsampleSet(n_grid, tuple(range(1, n_grid)))
    coefs = apply_dst(dst_matrix(n_grid), waveform)
    a_base, b_all = sensor.magnus_quadratures(coefs, duration)

    values = np.empty(subsample.m)
    for i, k in enumerate(subsample.indices):
        shot_seed = derive_seed(master_seed, seeds.SHOT, k)
        drift = 0.0 if noise is None else shot_drift(noise, shot_seed)
        a_k = a_base[k - 1] + drift * 2.0 * duration * (1.0 - (-1.0) ** k) / k
        state = sensor.magnus_state(a_k, b_all[k - 1])
        probs = readout_probabilities(state)
        if noise is None:
            values[i] = (probs[2] - probs[0]) / (2.0 * np.pi * duration)
        else:
            values[i] = extract_coefficient(count_atoms(probs, noise, shot_seed), duration)
    return values


def step_unitaries(omega_x, omega_z, dt):
    """Stack of per-step rotations exp(-i dt (wx Fx + wz Fz)), vectorised.

    omega_x and omega_z are angular-frequency components (rad/s), one entry
    per step.
    """
    magnitude = np.hypot(omega_x, omega_z)
    theta = magnitude * dt
    safe = np.where(magnitude == 0.0, 1.0, magnitude)
    nx = omega_x / safe
    nz = omega_z / safe

    sin_t = np.sin(theta)
    cos_m1 = np.cos(theta) - 1.0
    n_steps = omega_x.size
    u = np.zeros((n_steps, 3, 3), dtype=complex)

    # generator M = nx Fx + nz Fz and its square, written out explicitly
    m01 = nx / SQRT2
    u[:, 0, 0] = 1.0 - 1j * sin_t * nz + cos_m1 * (nz**2 + m01**2)
    u[:, 0, 1] = -1j * sin_t * m01 + cos_m1 * (m01 * nz)
    u[:, 0, 2] = cos_m1 * m01**2
    u[:, 1, 0] = -1j * sin_t * m01 + cos_m1 * (m01 * nz)
    u[:, 1, 1] = 1.0 + cos_m1 * (2.0 * m01**2)
    u[:, 1, 2] = -1j * sin_t * m01 - cos_m1 * (m01 * nz)
    u[:, 2, 0] = cos_m1 * m01**2
    u[:, 2, 1] = -1j * sin_t * m01 - cos_m1 * (m01 * nz)
    u[:, 2, 2] = 1.0 + 1j * sin_t * nz + cos_m1 * (nz**2 + m01**2)
    return u


def evolve_pairwise(psi0, unitaries):
    """U_{n-1} ... U_1 U_0 psi0: neighbouring steps are multiplied pairwise,
    the later one on the left, and an odd last step is carried up a level."""
    u = unitaries
    while len(u) > 1:
        even = len(u) - len(u) % 2
        u = np.concatenate((u[1:even:2] @ u[0:even:2], u[even:]))
    return u[0] @ psi0


def evolve_su2(omega_x, omega_z, dt):
    """Cayley-Klein pair (alpha, beta) of U_{n-1} ... U_0, U_i = exp(-i dt
    (wx_i Fx + wz_i Fz)): each level pairs neighbours, the later on the left,
    and concatenates an odd last step after the products."""
    half = 0.5 * dt * np.hypot(omega_x, omega_z)
    scale = 0.5 * dt * np.sinc(half / np.pi)
    alpha, beta = np.cos(half) - 1j * scale * omega_z, -1j * scale * omega_x
    while alpha.size > 1:
        even = alpha.size - alpha.size % 2
        a0, a1, b0, b1 = alpha[0:even:2], alpha[1:even:2], beta[0:even:2], beta[1:even:2]
        alpha = np.concatenate((a1 * a0 - b1.conj() * b0, alpha[even:]))
        beta = np.concatenate((b1 * a0 + a1.conj() * b0, beta[even:]))
    return alpha[0], beta[0]


def soft_threshold(x, tau):
    """Elementwise sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def objective(problem, x):
    """||A x - m||_2^2 + lambda ||x||_1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.operator.shape[1],):
        raise ValueError(
            f"x length {x.shape} does not match operator columns "
            f"{problem.operator.shape[1]}"
        )
    residual = problem.operator @ x - problem.measurements
    return float(residual @ residual + problem.lam * np.abs(x).sum())


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
    # per-column sums and the rows dropped on stalling stay contiguous.  The
    # thresholds are stored per row because same-shape arithmetic costs less
    # than broadcasting, which matters for a block of one.
    operator_t = operator.T if count == 1 else np.ascontiguousarray(operator.T)
    gradient_step = (2.0 * step) * operator  # the gradient is 2 r A
    with np.errstate(over="ignore"):  # a huge lambda's threshold is inf: x = 0
        tau = np.repeat((step * lam)[:, None], n_unknowns, axis=1)

    active = np.arange(count)
    x = np.zeros((count, n_unknowns))
    # D (x A^T - m) at x = 0, and the forward step from there
    residual = -measurements * (np.ones((count, 1)) if mask is None else mask)
    forward = step_point = x - residual @ gradient_step
    previous = np.vecdot(residual, residual)  # the objective at x = 0
    theta = 1.0
    waveforms = np.empty((count, n_unknowns))
    iterations = np.full(count, config.max_iters)
    converged = np.zeros(count, dtype=bool)
    finals = np.empty(count)

    for iteration in range(1, config.max_iters + 1):
        # soft_threshold, keeping |x| for the l1 term
        magnitude = np.maximum(np.abs(step_point) - tau, 0.0)
        x = np.copysign(magnitude, step_point)
        residual = x @ operator_t - measurements
        if mask is not None:
            residual *= mask

        value = np.vecdot(residual, residual) + lam * np.add.reduce(magnitude, axis=1)
        if active.size == 1:
            a, b = float(previous[0]), float(value[0])
            stalled = np.array([abs(a - b) <= config.rel_tolerance * max(a, b)])
        else:
            stalled = abs(previous - value) <= config.rel_tolerance * np.maximum(previous, value)
        previous = value
        if np.count_nonzero(stalled):
            done = active[stalled]
            waveforms[done] = x[stalled]
            iterations[done] = iteration
            converged[done] = True
            finals[done] = previous[stalled]
            going = ~stalled
            active, previous, lam, tau = active[going], previous[going], lam[going], tau[going]
            x, residual, forward = x[going], residual[going], forward[going]
            if mask is not None:
                mask = mask[going]
            if active.size == 0:
                break

        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        momentum = (theta - 1.0) / theta_next
        # the step point at y = x + momentum (x - x_old), by linearity
        forward_next = x - residual @ gradient_step
        step_point = forward_next + momentum * (forward_next - forward)
        forward, theta = forward_next, theta_next
    waveforms[active] = x
    finals[active] = previous
    return RecoveryResult(waveforms, iterations, converged, finals)


def y_form_fista_solve_block(
    operator,
    measurements,
    lams,
    row_masks=None,
    config: FistaConfig | None = None,
) -> RecoveryResult:
    """The block engine as it carried the momentum point y and its residual
    D (y A^T - m) in place of the forward step: the same update in exact
    arithmetic, so its rows agree with the engine's to rounding."""
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
    x, y = np.zeros((2, count, n_unknowns))
    # D (x A^T - m) at x = y = 0
    targets = np.repeat(measurements[None], count, axis=0)
    residual = -targets if mask is None else -targets * mask
    residual_y = residual.copy()
    previous = np.vecdot(residual, residual)  # the objective at x = 0
    theta = 1.0
    waveforms = np.empty((count, n_unknowns))
    iterations = np.full(count, config.max_iters)
    converged = np.zeros(count, dtype=bool)
    finals = np.empty(count)
    step_point, magnitude, x_next = np.empty((3, count, n_unknowns))
    residual_next = np.empty_like(residual)

    for iteration in range(1, config.max_iters + 1):
        np.subtract(y, np.matmul(residual_y, gradient_step, out=step_point), out=step_point)
        # soft_threshold, keeping |x_next| for the l1 term; a - min(a, tau) = max(a - tau, 0)
        np.abs(step_point, out=magnitude)
        np.subtract(magnitude, np.minimum(magnitude, tau, out=x_next), out=magnitude)
        np.copysign(magnitude, step_point, out=x_next)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        momentum = (theta - 1.0) / theta_next
        np.subtract(np.matmul(x_next, operator_t, out=residual_next), targets, out=residual_next)
        if mask is not None:
            residual_next *= mask
        np.add(x_next, np.multiply(momentum, np.subtract(x_next, x, out=y), out=y), out=y)
        # exact: D is linear and m cancels from the combination
        np.subtract(residual_next, residual, out=residual_y)
        np.add(residual_next, np.multiply(momentum, residual_y, out=residual_y), out=residual_y)
        x, x_next, residual, residual_next, theta = x_next, x, residual_next, residual, theta_next

        value = np.vecdot(residual, residual) + lam * np.add.reduce(magnitude, axis=1)
        # objectives are non-negative, so max(|a|, |b|) is max(a, b), and at
        # a = b = 0 the rule stalls.  A lone problem (every single solve)
        # evaluates the rule in Python floats: the same IEEE operations,
        # without six ufunc calls on one-element arrays, which would cost a
        # block of one 15 % per iteration
        if active.size == 1:
            a, b = float(previous[0]), float(value[0])
            stalled = np.array([abs(a - b) <= config.rel_tolerance * max(a, b)])
        else:
            stalled = abs(previous - value) <= config.rel_tolerance * np.maximum(previous, value)
        previous = value
        if np.count_nonzero(stalled):
            gone, keep = stalled.nonzero()[0], (~stalled).nonzero()[0]
            done = active.take(gone)
            waveforms[done] = x.take(gone, axis=0)
            iterations[done] = iteration
            converged[done] = True
            finals[done] = previous.take(gone)
            active, previous, lam, tau, targets, x, y, residual, residual_y, mask = (
                v if v is None else v.take(keep, axis=0)
                for v in (active, previous, lam, tau, targets, x, y, residual, residual_y, mask)
            )
            if keep.size == 0:
                break
            step_point, magnitude, x_next, residual_next = (
                v[: keep.size] for v in (step_point, magnitude, x_next, residual_next)
            )
    waveforms[active] = x
    finals[active] = previous
    return RecoveryResult(waveforms, iterations, converged, finals)


def random_subsample(n_grid, m, seed):
    """Sorted m-subset of 1..N-1: the first m swaps of a seeded Fisher-Yates
    shuffle, one ``rng.integers`` draw for all of them."""
    if not 1 <= m <= n_grid - 1:
        raise ValueError(f"m must lie in 1..{n_grid - 1}, got {m}")
    rng = np.random.default_rng(seed)
    pool = np.arange(1, n_grid)
    for i, j in enumerate(rng.integers(np.arange(m), pool.size)):
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(int(i) for i in pool[:m]))


def roc_curve_from_scores(scores, labels):
    """(fallout, recall) points of one score row: the counts at or above each
    distinct score are reversed cumulative sums of the per-score counts."""
    scores = np.asarray(scores, dtype=float)
    positive = detection.positive_labels(labels)
    n_positive = int(positive.sum())
    n_negative = int(positive.size - n_positive)
    distinct, inverse = np.unique(scores, return_inverse=True)

    def at_or_above(selected):
        # the appended 0 is the threshold above every score, which flags nothing
        counts = np.bincount(inverse[selected], minlength=distinct.size)
        return np.append(np.cumsum(counts[::-1])[::-1], 0)

    tp = at_or_above(positive)
    fp = at_or_above(~positive)
    return np.column_stack((fp[::-1] / n_negative, tp[::-1] / n_positive))


def sweep_sample_count(spec, template, truth):
    """(m, mean AUC, std AUC) rows with the subsets drawn and graded one
    (m, rep) at a time."""
    labels = detection.ground_truth_classification(truth, template)
    pairs = [(m, rep) for m in spec.m_values for rep in range(spec.subsets_per_m)]
    scores = np.empty(len(pairs))
    for start in range(0, len(pairs), experiments._SWEEP_BLOCK_COLUMNS):
        chunk = pairs[start : start + experiments._SWEEP_BLOCK_COLUMNS]
        masks = np.zeros((len(chunk), spec.n_grid - 1), dtype=bool)
        for j, (m, rep) in enumerate(chunk):
            seed = derive_seed(spec.master_seed, seeds.SUBSET, m, rep)
            masks[j, np.asarray(random_subsample(spec.n_grid, m, seed)) - 1] = True
        block = recovery.fista_solve_block(
            dst_matrix(spec.n_grid), spec.base_measurements,
            np.full(len(chunk), spec.lam), row_masks=masks,
        )
        for j, waveform in enumerate(block.waveform):
            row_scores = detection.matched_filter(waveform, template)
            scores[start + j] = detection.auc(roc_curve_from_scores(row_scores, labels))
    scores = scores.reshape(len(spec.m_values), spec.subsets_per_m)
    return [(int(m), float(row.mean()), float(row.std())) for m, row in zip(spec.m_values, scores)]


def window_mean(signal, lo, hi):
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    centre, half = signal.omega * (lo + hi) / 2.0, signal.omega * (hi - lo) / 2.0
    return 2.0 * (np.sin(centre) * np.sinc(half / np.pi)) @ signal.coefs


def csv_rows_text(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
        for row in rows
    )
    return buf.getvalue()
