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

Evolution freezes the Hamiltonian at each step midpoint and applies the exact
spin-1 rotation exp(-i theta n.F) = I - i sin(theta) (n.F)
+ (cos(theta) - 1) (n.F)^2, which preserves the norm exactly and is
second-order accurate.  The midpoints (i + 1/2) T / n are uniform, so a sine
interpolant is evaluated on all of them at once by one DST-III
(``SineInterpolant.at_midpoints``), and the n step rotations are multiplied
pairwise, ceil(log2 n) batched levels, before the product meets |m=-1>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Waveform
from .transform import SineInterpolant, sine_interpolant

SQRT2 = np.sqrt(2.0)

# Spin-1 operators in the Fz basis (m = +1, 0, -1), hbar = 1.
FX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
FY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
FZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

# |m = -1>, the prepared state.
STATE_MINUS_Z = np.array([0.0, 0.0, 1.0], dtype=complex)


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


@dataclass(frozen=True)
class NoiseModel:
    """Per-shot constant bias drift plus Poisson atom shot noise."""

    bias_drift_std_hz: float = 200.0
    mean_atoms: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.bias_drift_std_hz < np.inf:
            raise ValueError("bias_drift_std_hz must be non-negative and finite")
        if not 1 <= self.mean_atoms < np.inf:
            raise ValueError("mean_atoms must be >= 1 and finite")


@dataclass
class SpinState:
    """Three complex amplitudes in the Fz basis (m = +1, 0, -1)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (3,):
            raise ValueError("a spin-1 state has exactly 3 amplitudes")

    @property
    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def expectation(self, operator: np.ndarray) -> float:
        return float(np.real(np.vdot(self.amplitudes, operator @ self.amplitudes)))

    @property
    def populations(self) -> np.ndarray:
        """Probabilities (p_plus, p_zero, p_minus)."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class PopulationCounts:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def total(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus


@dataclass(frozen=True)
class MagnusCoefficients:
    """First-order Magnus quadratures (radians): a from the sine component,
    b from the cosine component of the signal at the Rabi frequency.  Floats
    for one shot, or equal-shape arrays for a batch."""

    a: float
    b: float


def spin1_rotation(axis, angle: float) -> np.ndarray:
    """exp(-i * angle * axis.F) for a unit 3-vector axis."""
    n = np.asarray(axis, dtype=float)
    generator = n[0] * FX + n[1] * FY + n[2] * FZ
    return (
        np.eye(3, dtype=complex)
        - 1j * np.sin(angle) * generator
        + (np.cos(angle) - 1.0) * (generator @ generator)
    )


def _step_unitaries(omega_x: np.ndarray, omega_z: np.ndarray, dt: float) -> np.ndarray:
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


def _evolve(psi0: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """U_{n-1} ... U_1 U_0 psi0: neighbouring steps are multiplied pairwise,
    the later one on the left, and an odd last step is carried up a level."""
    u = unitaries
    while len(u) > 1:
        even = len(u) - len(u) % 2
        u = np.concatenate((u[1:even:2] @ u[0:even:2], u[even:]))
    return u[0] @ psi0


def _time_steps(duration: float, step: float):
    n_steps = max(1, int(round(duration / step)))
    dt = duration / n_steps
    midpoints = (np.arange(n_steps) + 0.5) * dt
    return midpoints, dt


def _signal_at(signal, midpoints: np.ndarray, duration: float) -> np.ndarray:
    """The signal at the step midpoints: one DST-III for a sine interpolant
    over its own duration, a plain call otherwise."""
    if isinstance(signal, SineInterpolant) and signal.duration == duration:
        return signal.at_midpoints(midpoints.size)
    return np.asarray(signal(midpoints), dtype=float)


def evolve_rotating_frame(signal, params: SensorParams, drift_hz: float = 0.0) -> SpinState:
    """Evolve |m=-1> under H_rot = Omega Fx - 2 pi (gamma_b(t) + drift) Fz.

    ``signal`` is a callable returning gamma*B in Hz at times in [0, T].
    """
    if params.step > 1.0 / (50.0 * params.rabi_hz):
        raise ValueError(
            f"step {params.step} too large for rabi_hz={params.rabi_hz}; "
            f"need step <= {1.0 / (50.0 * params.rabi_hz):.3g}"
        )
    midpoints, dt = _time_steps(params.duration, params.step)
    omega_x = np.full(midpoints.size, 2.0 * np.pi * params.rabi_hz)
    omega_z = -2.0 * np.pi * (_signal_at(signal, midpoints, params.duration) + drift_hz)
    psi = _evolve(STATE_MINUS_Z, _step_unitaries(omega_x, omega_z, dt))
    return SpinState(psi)


def evolve_lab_frame(signal, params: SensorParams) -> SpinState:
    """Evolve |m=-1> under the full lab-frame Hamiltonian with the
    counter-rotating drive term retained:

        H = omega_0 Fz + 2 Omega cos(omega_rf t) Fx - 2 pi gamma_b(t) Fz.
    """
    if params.larmor_hz > 0 and params.step > 1.0 / (50.0 * params.larmor_hz):
        raise ValueError(
            f"step {params.step} too large for larmor_hz={params.larmor_hz}; "
            f"need step <= {1.0 / (50.0 * params.larmor_hz):.3g}"
        )
    midpoints, dt = _time_steps(params.duration, params.step)
    omega_x = (
        2.0
        * (2.0 * np.pi * params.rabi_hz)
        * np.cos(2.0 * np.pi * params.rf_hz * midpoints)
    )
    omega_z = 2.0 * np.pi * params.larmor_hz - 2.0 * np.pi * _signal_at(
        signal, midpoints, params.duration
    )
    psi = _evolve(STATE_MINUS_Z, _step_unitaries(omega_x, omega_z, dt))
    return SpinState(psi)


def cosine_coupling_matrix(n_grid: int) -> np.ndarray:
    """Matrix C with c = C m giving the cosine coefficients c_k of the
    sine-series interpolant whose sine coefficients are m.

    C[k, l] = (4/pi) * l / (l^2 - k^2) for l + k odd, else 0.
    """
    k = np.arange(1, n_grid)[:, None].astype(float)
    l = np.arange(1, n_grid)[None, :].astype(float)
    odd = (k + l) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(odd, (4.0 / np.pi) * l / (l**2 - k**2), 0.0)
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
    a = 2.0 * np.pi * duration * coefs + (
        np.asarray(drift_hz) * 2.0 * duration * (1.0 - (-1.0) ** k) / k
    )
    b = 2.0 * np.pi * duration * (cosine_coupling_matrix(coefs.size + 1) @ coefs)
    return a, b


def magnus_prediction(coeffs: MagnusCoefficients):
    """Expected second-frame <Fx> = sin(r)/r * a with r = sqrt(a^2 + b^2);
    a float for float quadratures, an array for arrays."""
    fx = np.sinc(np.hypot(coeffs.a, coeffs.b) / np.pi) * coeffs.a
    return float(fx) if np.ndim(fx) == 0 else fx


def second_frame_state(state: SpinState, params: SensorParams) -> SpinState:
    """Transform a rotating-frame state into the second rotating frame,
    psi_rr = exp(+i Omega T Fx) psi_rot."""
    angle = 2.0 * np.pi * params.rabi_hz * params.duration
    return SpinState(spin1_rotation([1.0, 0.0, 0.0], -angle) @ state.amplitudes)


def magnus_state(coeffs: MagnusCoefficients) -> SpinState:
    """Second-frame state predicted by first-order Magnus, starting in |m=-1>:
    psi_rr = exp(+i (a Fy + b Fz)) |m=-1>."""
    r = np.hypot(coeffs.a, coeffs.b)
    if r == 0.0:
        return SpinState(STATE_MINUS_Z.copy())
    axis = np.array([0.0, -coeffs.a, -coeffs.b]) / r
    return SpinState(spin1_rotation(axis, r) @ STATE_MINUS_Z)


def _count_atoms(probs, noise: NoiseModel, shot_seed: int) -> PopulationCounts:
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, 1)))
    total = max(1, int(rng.poisson(noise.mean_atoms)))
    return PopulationCounts(*(int(c) for c in rng.multinomial(total, probs)))


def extract_coefficient(counts: PopulationCounts, duration: float) -> float:
    """Sine-coefficient estimate (n_minus - n_plus) / (2 pi T total), in Hz."""
    if counts.total <= 0:
        raise ValueError("cannot extract a coefficient from zero atoms")
    return (counts.n_minus - counts.n_plus) / (2.0 * np.pi * duration * counts.total)


def _shot_drift(noise: NoiseModel, shot_seed: int) -> float:
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, 0)))
    return float(rng.normal(0.0, noise.bias_drift_std_hz))


def readout_coefficient(fx, duration: float, noise: NoiseModel | None, shot_seed=0):
    """Sine-coefficient estimate (Hz) of a shot whose coherent state has
    second-frame <Fx> = fx.

    ``noise=None`` is the exact noiseless limit fx / (2 pi T).  Otherwise the
    pi/2-pulse populations (((1-x)/2)^2, (1-x^2)/2, ((1+x)/2)^2) are counted
    with one seeded draw per shot (``_count_atoms``, stream (noise.seed,
    shot_seed, 1)).  Array ``fx`` and ``shot_seed`` broadcast and give an
    array; scalars give a float.
    """
    fx, seeds = np.broadcast_arrays(np.asarray(fx, dtype=float), shot_seed)
    if not np.all(np.abs(fx) <= 1.0 + 1e-9):
        raise ValueError("<Fx> must lie in [-1, 1]: not a normalised spin-1 state")
    if noise is None:
        values = fx / (2.0 * np.pi * duration)
    else:
        x = np.clip(fx, -1.0, 1.0)
        probs = np.stack(
            (((1.0 - x) / 2.0) ** 2, (1.0 - x**2) / 2.0, ((1.0 + x) / 2.0) ** 2), axis=-1
        )
        values = np.empty(fx.shape)
        for i, seed in np.ndenumerate(seeds):
            counts = _count_atoms(probs[i], noise, int(seed))
            values[i] = extract_coefficient(counts, duration)
    return float(values) if values.ndim == 0 else values


def measure_sine_coefficient(
    waveform: Waveform,
    k: int,
    noise: NoiseModel | None,
    shot_seed: int = 0,
    step: float = 1e-6,
    method: str = "unitary",
) -> float:
    """One full shot measuring the sine coefficient at frequency k*df (Hz).

    The sensor evolves the sine-series interpolant of the waveform.  In the
    noiseless limit the result is ``apply_dst``'s coefficient scaled by the
    first-order Magnus factor sin(r)/r (``magnus_prediction``), plus
    higher-order corrections; the factor tends to 1 for weak fields but not
    at full amplitude (the largest coefficient of a 1 kHz, 200 us pulse is
    read 6.5 % low, and the worst deviation over k is 6.6 % of it).
    ``noise=None`` is the exact noiseless limit: no drift, and the population
    difference is taken as an expectation value rather than sampled.
    ``method`` selects full unitary stepping of at most ``step`` seconds
    ("unitary") or the first-order Magnus closed form on the exact
    quadratures ("magnus").
    """
    n_grid = waveform.grid.n_grid
    if not 1 <= k <= n_grid - 1:
        raise ValueError(f"k must lie in 1..{n_grid - 1}, got {k}")
    duration = waveform.grid.duration
    rabi_hz = k / (2.0 * duration)
    drift = 0.0 if noise is None else _shot_drift(noise, shot_seed)
    signal = sine_interpolant(waveform)

    if method == "unitary":
        params = SensorParams(
            larmor_hz=0.0,
            rabi_hz=rabi_hz,
            rf_hz=0.0,
            duration=duration,
            step=min(step, 1.0 / (50.0 * rabi_hz)),
        )
        state = second_frame_state(
            evolve_rotating_frame(signal, params, drift_hz=drift), params
        )
        fx = state.expectation(FX)
    elif method == "magnus":
        a, b = magnus_quadratures(signal.coefs, duration, drift)
        fx = magnus_prediction(MagnusCoefficients(a[k - 1], b[k - 1]))
    else:
        raise ValueError(f"unknown method {method!r}")
    return readout_coefficient(fx, duration, noise, shot_seed)


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
    2), and returns an array.  Scalars give a float."""
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
        for i, seed in np.ndenumerate(seeds):
            seq = np.random.SeedSequence((noise.seed, int(seed), 2))
            rng = np.random.default_rng(seq)
            drift = rng.normal(0.0, noise.bias_drift_std_hz)
            values[i] = values[i] + drift + rng.normal(0.0, shot_std)
    return float(values) if values.ndim == 0 else values
