"""Shot-level simulator of the RF-dressed spin-1 magnetometer.

One shot: evolve |m=-1> under the rotating-frame Hamiltonian

    H_rot = 2*pi*rabi_hz * Fx - 2*pi*(gamma_b(t) + drift) * Fz,

move to the second rotating frame (rotation at the Rabi frequency about x),
apply an ideal pi/2 readout pulse, count Zeeman populations with Poisson atom
number and multinomial projection noise, and turn the population difference
into a sine-coefficient estimate.

Sign conventions (all fixed here, validated against the first-order Magnus
closed form by the test suite):

* the signal couples with a minus sign on Fz, so that a positive sine
  coefficient drives a positive second-frame <Fx>,
* the second-frame transform is psi_rr = exp(+i * Omega * T * Fx) psi_rot,
* the readout pulse is exp(-i * (pi/2) * Fy), which maps
  <Fz>_after = -<Fx>_before, so the estimator
  (n_minus - n_plus) / (2 pi T total) reads the second-frame <Fx> scaled to
  hertz.  It is linear in <Fx> = sin(r)/r * a (see ``magnus_prediction``),
  so it estimates the coefficient only up to that first-order factor, which
  is 1 only in the weak-field limit.

Coherent-state readout: every state the sensor makes is |m=-1> evolved under
a Hamiltonian linear in F, so it is a spin-1 coherent state, and after the
pi/2 pulse its populations (p_plus, p_zero, p_minus) are fixed by the
second-frame x = <Fx> alone: (((1-x)/2)^2, (1-x^2)/2, ((1+x)/2)^2).
``readout_coefficient`` draws the atom counts from that closed form, for one
shot or a whole batch, with no 3x3 rotation per shot.

Evolution freezes the Hamiltonian at each step midpoint, which is
second-order accurate.  H is linear in F, so each step is an SU(2) rotation
exp(-i theta n.F) in its spin-1 representation, kept as its spin-1/2
Cayley-Klein pair (alpha, beta); that preserves the norm exactly.  The
midpoints (i + 1/2) T / n are uniform, so a sine interpolant is evaluated on
all of them at once by one DST-III (``SineInterpolant.at_midpoints``), and
the n pairs are combined pairwise, ceil(log2 n) batched levels.  A shot
reads <Fx> straight from the one product pair; ``evolve_rotating_frame`` and
``evolve_lab_frame`` map it to the state's three complex amplitudes
(m = +1, 0, -1) in the Fz basis, returned as a plain array of shape (3,).

Noise: a noisy shot draws its drift and its counts on the streams of keys
(noise.seed, shot_seed, DRIFT) and (noise.seed, shot_seed, COUNTS), a Ramsey
window on (noise.seed, shot_seed, RAMSEY_NOISE), all from ``seeds.streams``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Waveform
from .seeds import COUNTS, DRIFT, RAMSEY_NOISE, streams
from .transform import SineInterpolant, sine_interpolant

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SensorParams:
    """Dressing/readout parameters; all frequencies are ordinary (Hz)."""

    larmor_hz: float
    rabi_hz: float
    rf_hz: float
    duration: float
    step: float

    def __post_init__(self):
        if self.rabi_hz <= 0:
            raise ValueError("rabi_hz must be positive")
        if self.step <= 0:
            raise ValueError("step must be positive")


# The largest mean numpy's Poisson draw accepts (its POISSON_LAM_MAX).
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# Below this duration T the readout scale 1/(2 pi T) exceeds the largest float.
_SHORTEST_DURATION = 1.0 / (2.0 * np.pi) / np.finfo(float).max


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot constant bias drift plus Poisson atom shot noise."""

    bias_drift_std_hz: float = 200.0
    mean_atoms: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.bias_drift_std_hz < np.inf:
            raise ValueError("bias_drift_std_hz must be non-negative and finite")
        if not 1 <= self.mean_atoms <= _POISSON_MEAN_MAX:
            raise ValueError(
                f"mean_atoms must be finite and in [1, {_POISSON_MEAN_MAX:.4g}], "
                f"got {self.mean_atoms}"
            )


def _evolve(omega_x: np.ndarray, omega_z: np.ndarray, dt: float):
    """Cayley-Klein pair (alpha, beta) of U_{n-1} ... U_1 U_0, the product of
    the step rotations U_i = exp(-i dt (wx_i Fx + wz_i Fz)), w in rad/s.

    A pair stands for the SU(2) element [[alpha, -conj(beta)], [beta,
    conj(alpha)]].  Step i has alpha = cos(theta/2) - i sin(theta/2) nz and
    beta = -i sin(theta/2) nx, theta = |w| dt; sin(theta/2) n is written
    (dt/2) sinc(theta/2) w, so w = 0 is exact.  Neighbouring steps are
    combined pairwise, the later one on the left, and an odd last step is
    carried up a level.
    """
    half = 0.5 * dt * np.hypot(omega_x, omega_z)
    scale = 0.5 * dt * np.sinc(half / np.pi)
    alpha, beta = np.cos(half) - 1j * scale * omega_z, -1j * scale * omega_x
    while alpha.size > 1:
        even = alpha.size - alpha.size % 2
        a0, a1, b0, b1 = alpha[0:even:2], alpha[1:even:2], beta[0:even:2], beta[1:even:2]
        alpha = np.concatenate((a1 * a0 - b1.conj() * b0, alpha[even:]))
        beta = np.concatenate((b1 * a0 + a1.conj() * b0, beta[even:]))
    return alpha[0], beta[0]


def _minus_state(alpha, beta) -> np.ndarray:
    """Amplitudes (m = +1, 0, -1) of |m=-1> rotated by the SU(2) pair (alpha,
    beta): the last column of its spin-1 matrix, (conj(beta)^2,
    -sqrt(2) conj(alpha) conj(beta), conj(alpha)^2)."""
    ac, bc = np.conj(alpha), np.conj(beta)
    return np.array([bc**2, -SQRT2 * ac * bc, ac**2], dtype=complex)


def _time_steps(duration: float, step: float):
    """Midpoints and width of the fewest equal steps no wider than ``step``;
    a duration within round-off of a multiple of ``step`` keeps that count."""
    n_steps = max(1, int(np.ceil(duration / step * (1.0 - 1e-9))))
    dt = duration / n_steps
    midpoints = (np.arange(n_steps) + 0.5) * dt
    return midpoints, dt


def _signal_at(signal, midpoints: np.ndarray, duration: float) -> np.ndarray:
    """The signal at the step midpoints: one DST-III for a sine interpolant
    over its own duration, a plain call otherwise."""
    if isinstance(signal, SineInterpolant) and signal.duration == duration:
        return signal.at_midpoints(midpoints.size)
    return np.asarray(signal(midpoints), dtype=float)


def _rotating_frame_pair(signal, params: SensorParams, drift_hz: float):
    if params.step > 1.0 / (50.0 * params.rabi_hz):
        raise ValueError(
            f"step {params.step} too large for rabi_hz={params.rabi_hz}; "
            f"need step <= {1.0 / (50.0 * params.rabi_hz):.3g}"
        )
    midpoints, dt = _time_steps(params.duration, params.step)
    omega_x = np.full(midpoints.size, 2.0 * np.pi * params.rabi_hz)
    omega_z = -2.0 * np.pi * (_signal_at(signal, midpoints, params.duration) + drift_hz)
    return _evolve(omega_x, omega_z, dt)


def evolve_rotating_frame(signal, params: SensorParams, drift_hz: float = 0.0) -> np.ndarray:
    """Evolve |m=-1> under H_rot = Omega Fx - 2 pi (gamma_b(t) + drift) Fz and
    return its three amplitudes (m = +1, 0, -1).

    ``signal`` is a callable returning gamma*B in Hz at times in [0, T].
    """
    return _minus_state(*_rotating_frame_pair(signal, params, drift_hz))


def evolve_lab_frame(signal, params: SensorParams) -> np.ndarray:
    """Amplitudes (m = +1, 0, -1) of |m=-1> evolved under the full lab-frame
    Hamiltonian with the counter-rotating drive term retained:

        H = omega_0 Fz + 2 Omega cos(omega_rf t) Fx - 2 pi gamma_b(t) Fz.
    """
    if params.larmor_hz > 0 and params.step > 1.0 / (50.0 * params.larmor_hz):
        raise ValueError(
            f"step {params.step} too large for larmor_hz={params.larmor_hz}; "
            f"need step <= {1.0 / (50.0 * params.larmor_hz):.3g}"
        )
    midpoints, dt = _time_steps(params.duration, params.step)
    omega_x = 4.0 * np.pi * params.rabi_hz * np.cos(2.0 * np.pi * params.rf_hz * midpoints)
    omega_z = 2.0 * np.pi * params.larmor_hz - 2.0 * np.pi * _signal_at(
        signal, midpoints, params.duration
    )
    return _minus_state(*_evolve(omega_x, omega_z, dt))


@functools.lru_cache(maxsize=4)
def cosine_coupling_matrix(n_grid: int) -> np.ndarray:
    """Matrix C with c = C m giving the cosine coefficients c_k of the
    sine-series interpolant whose sine coefficients are m.

    C[k, l] = (4/pi) * l / (l^2 - k^2) for l + k odd, else 0.  Built once
    per N and shared, like ``transform.dst_matrix``, so it is read-only.
    """
    k = np.arange(1, n_grid)[:, None].astype(float)
    l = np.arange(1, n_grid)[None, :].astype(float)
    odd = (k + l) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(odd, (4.0 / np.pi) * l / (l**2 - k**2), 0.0)
    c.flags.writeable = False
    return c


def magnus_quadratures(
    coefs: np.ndarray, duration: float, drift_hz: np.ndarray | float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Exact first-order Magnus quadratures (a_k, b_k) for every frequency
    index, given the full DST coefficient vector and a drift (one value, or
    one per index).

    a_k = 2 pi T m_k + drift * 2T(1 - (-1)^k)/k,  b_k = 2 pi T c_k.
    """
    k = np.arange(1, coefs.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        drift_term = np.asarray(drift_hz) * 2.0 * duration * (1.0 - (-1.0) ** k) / k
        a = 2.0 * np.pi * duration * coefs + drift_term
        b = 2.0 * np.pi * duration * (cosine_coupling_matrix(coefs.size + 1) @ coefs)
    if not np.all(np.isfinite(drift_term)):
        raise ValueError(f"bias drift std too large: drift*2T overflows at T = {duration} s")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"Magnus quadratures overflow: waveform too large for T = {duration} s")
    return a, b


def magnus_prediction(a, b):
    """Expected second-frame <Fx> = sin(r)/r * a, r = sqrt(a^2 + b^2), for the
    first-order Magnus quadratures (radians) a and b of the signal's sine and
    cosine components; a float for floats, an array for equal-shape arrays."""
    fx = np.sinc(np.hypot(a, b) / np.pi) * a
    return float(fx) if np.ndim(fx) == 0 else fx


def magnus_state(a: float, b: float) -> np.ndarray:
    """Amplitudes of the second-frame state predicted by first-order Magnus,
    starting in |m=-1>: psi_rr = exp(+i (a Fy + b Fz)) |m=-1>.  Its <Fx> is
    ``magnus_prediction(a, b)``, which is what the shots read; no path in the
    package calls it, but the benchmark's tracer wraps it by name."""
    r = np.hypot(a, b)
    if r == 0.0:
        return np.array([0.0, 0.0, 1.0], dtype=complex)
    # exp(-i r n.F) with n = (0, -a, -b) / r
    nx, ny, nz = np.sin(r / 2.0) * (np.array([0.0, -a, -b]) / r)
    return _minus_state(np.cos(r / 2.0) - 1j * nz, ny - 1j * nx)


def readout_coefficient(fx, duration: float, noise: NoiseModel | None, shot_seed=0):
    """Sine-coefficient estimate (Hz) of a shot whose coherent state has
    second-frame <Fx> = fx.

    ``noise=None`` is the exact noiseless limit fx / (2 pi T).  Otherwise the
    pi/2-pulse populations (((1-x)/2)^2, (1-x^2)/2, ((1+x)/2)^2) are counted
    with one Poisson atom number and one multinomial draw per shot, on stream
    (noise.seed, shot_seed, COUNTS), and read as (n_minus - n_plus) / (2 pi T
    atoms).  Array ``fx`` and ``shot_seed`` broadcast and give an array;
    scalars give a float.
    """
    fx, seeds = np.broadcast_arrays(np.asarray(fx, dtype=float), shot_seed)
    rngs = None if noise is None else streams(noise.seed, seeds, COUNTS)
    return count_readout(fx, duration, noise, rngs)


def count_readout(fx, duration: float, noise: NoiseModel | None, rngs):
    """:func:`readout_coefficient` of array ``fx``, counted on the generators
    ``rngs`` (one per shot, in C order; unused when ``noise`` is None)."""
    if not np.all(np.abs(fx) <= 1.0 + 1e-9):
        raise ValueError("<Fx> must lie in [-1, 1]: not a normalised spin-1 state")
    if duration < _SHORTEST_DURATION:
        raise ValueError(f"T = N*dt = {duration:.3g} s: the readout 1/(2 pi T) overflows")
    if noise is None:
        values = fx / (2.0 * np.pi * duration)
    else:
        x = np.clip(fx, -1.0, 1.0).ravel()
        probs = np.stack(
            (((1.0 - x) / 2.0) ** 2, (1.0 - x**2) / 2.0, ((1.0 + x) / 2.0) ** 2), axis=-1
        )
        scale, counts = 2.0 * np.pi * duration, []
        for p, rng in zip(probs.tolist(), rngs):
            atoms = max(1, int(rng.poisson(noise.mean_atoms)))
            n_plus, _, n_minus = rng.multinomial(atoms, p).tolist()
            counts.append((n_minus - n_plus) / (scale * atoms))
        values = np.array(counts).reshape(fx.shape)
    return float(values) if values.ndim == 0 else values


def measure_sine_coefficient(
    waveform: Waveform,
    k: int,
    noise: NoiseModel | None,
    shot_seed: int = 0,
    step: float = 1e-6,
) -> float:
    """One full shot measuring the sine coefficient at frequency k*df (Hz),
    by unitary stepping of at most ``step`` seconds.

    The sensor evolves the sine-series interpolant of the waveform.  In the
    noiseless limit the result is ``apply_dst``'s coefficient scaled by the
    first-order Magnus factor sin(r)/r (``magnus_prediction``), plus
    higher-order corrections; the factor tends to 1 for weak fields but not
    at full amplitude (the largest coefficient of a 1 kHz, 200 us pulse is
    read 6.5 % low, and the worst deviation over k is 6.6 % of it).
    ``noise=None`` is the exact noiseless limit: no drift, and the population
    difference is taken as an expectation value rather than sampled.  The
    first-order Magnus closed form of a batch of shots is
    ``experiments.simulate_measurements``.
    """
    n_grid = waveform.grid.n_grid
    if not 1 <= k <= n_grid - 1:
        raise ValueError(f"k must lie in 1..{n_grid - 1}, got {k}")
    duration = waveform.grid.duration
    rabi_hz = k / (2.0 * duration)
    drift, rngs = 0.0, None
    if noise is not None:
        rngs = streams(noise.seed, shot_seed, [DRIFT, COUNTS])
        drift = next(rngs).normal(0.0, noise.bias_drift_std_hz)
    params = SensorParams(0.0, rabi_hz, 0.0, duration, min(step, 1.0 / (50.0 * rabi_hz)))
    # the coherent state of spinor (u, v) = (-conj(beta), conj(alpha)) has
    # <Fx> = 2 Re(conj(u) v); the second-frame rotation about x keeps it
    alpha, beta = _rotating_frame_pair(sine_interpolant(waveform), params, drift)
    fx = -2.0 * float(np.real(np.conj(alpha) * beta))
    return count_readout(np.asarray(fx), duration, noise, rngs)


def ramsey_sample(
    waveform: Waveform,
    center_time,
    window: float,
    noise: NoiseModel | None,
    shot_seed=0,
):
    """Ramsey baseline: the exact mean of the sine interpolant over each window
    clipped to [0, T], plus drift and an effective Gaussian shot-noise term
    calibrated to the multinomial variance at mean_atoms
    (std = sqrt(1/(2 atoms)) / (2 pi window)).  Array ``center_time`` and
    ``shot_seed`` broadcast: one call then makes every window from one
    coefficient vector, each with its own noise stream (noise.seed, shot_seed,
    RAMSEY_NOISE), and returns an array.  Scalars give a float."""
    if window <= 0:
        raise ValueError("window must be positive")
    centre, seeds = np.broadcast_arrays(np.asarray(center_time, dtype=float), shot_seed)
    duration = waveform.grid.duration
    lo = np.clip(centre - window / 2.0, 0.0, duration)
    hi = np.clip(centre + window / 2.0, 0.0, duration)
    if np.any(hi <= lo):
        raise ValueError("window does not overlap [0, T]")
    values = np.array(sine_interpolant(waveform).window_mean(lo, hi))
    if noise is not None:
        shot_std = np.sqrt(1.0 / (2.0 * noise.mean_atoms)) / (2.0 * np.pi * window)
        rngs = streams(noise.seed, seeds, RAMSEY_NOISE)
        noisy = [value + rng.normal(0.0, noise.bias_drift_std_hz) + rng.normal(0.0, shot_std)
                 for value, rng in zip(values.ravel().tolist(), rngs)]
        values = np.array(noisy).reshape(values.shape)
    return float(values) if values.ndim == 0 else values
