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
  noise streams, each built directly on ``np.random.SeedSequence`` and
  ``default_rng``, one key at a time.
* ``step_unitaries`` and ``evolve_pairwise``: the stepped unitary shot as
  3x3 complex matrices, one spin-1 rotation per step, multiplied pairwise.
* ``soft_threshold`` and ``objective``: the LASSO pieces of the scalar FISTA
  loop, which the block engine inlines.
* ``random_subsample``: one subset's partial Fisher-Yates shuffle on a numpy
  pool, returned as sorted indices.
* ``roc_curve_from_scores``: one row's ROC from ``np.unique`` and per-score
  counts, graded by ``detection.auc``.
* ``sweep_sample_count``: the sample-count sweep with one subset draw and one
  ROC per (m, rep), around the same block solves.
"""

import numpy as np
from scipy.integrate import simpson

from sparsemag import detection, experiments, recovery, sensor
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
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, 0)))
    return float(rng.normal(0.0, noise.bias_drift_std_hz))


def count_atoms(probs, noise, shot_seed):
    """Atom counts (n_plus, n_zero, n_minus) of one shot."""
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, 1)))
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
        shot_seed = derive_seed(master_seed, 0, k)
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
            seed = derive_seed(spec.master_seed, experiments._TAG_SUBSET, m, rep)
            masks[j, np.asarray(random_subsample(spec.n_grid, m, seed)) - 1] = True
        results = recovery.fista_solve_block(
            dst_matrix(spec.n_grid), spec.base_measurements,
            np.full(len(chunk), spec.lam), row_masks=masks,
        )
        for j, result in enumerate(results):
            row_scores = detection.matched_filter(result.waveform, template)
            scores[start + j] = detection.auc(roc_curve_from_scores(row_scores, labels))
    scores = scores.reshape(len(spec.m_values), spec.subsets_per_m)
    return [(int(m), float(row.mean()), float(row.std())) for m, row in zip(spec.m_values, scores)]
