"""The shot sampler as first written, kept as oracles for the closed forms.

* ``magnus_coefficients``: the first-order Magnus quadratures of any signal
  by composite Simpson quadrature.
* ``readout_probabilities`` and ``readout``: the pi/2 readout as a 3x3
  ``spin1_rotation`` applied to the state, populations |psi|^2 normalised.
* ``simulate_measurements``: the per-shot loop, one ``magnus_state`` rotation
  and one matrix readout per shot, with the atom-count draw written out.
* ``derive_seed``, ``shot_drift`` and ``count_atoms``: the per-shot seeds and
  noise streams, each built directly on ``np.random.SeedSequence`` and
  ``default_rng``, one key at a time.
* ``soft_threshold`` and ``objective``: the LASSO pieces of the scalar FISTA
  loop, which the block engine inlines.
"""

import numpy as np
from scipy.integrate import simpson

from sparsemag import sensor
from sparsemag.transform import SubsampleSet, apply_dst, dst_matrix


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


def readout_probabilities(state):
    """Populations after the ideal pi/2 pulse about the second frame's y axis."""
    psi = sensor.spin1_rotation([0.0, 1.0, 0.0], 0.5 * np.pi) @ state.amplitudes
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


def readout(state, params, noise, shot_seed):
    """Second-frame transform, matrix pi/2 pulse, then atom counting."""
    if abs(state.norm_sq - 1.0) > 1e-8:
        raise ValueError(f"state not normalised: |psi|^2 = {state.norm_sq}")
    probs = readout_probabilities(sensor.second_frame_state(state, params))
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
