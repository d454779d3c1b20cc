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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Waveform
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
    a = 2.0 * np.pi * duration * coefs + (
        np.asarray(drift_hz) * 2.0 * duration * (1.0 - (-1.0) ** k) / k
    )
    b = 2.0 * np.pi * duration * (cosine_coupling_matrix(coefs.size + 1) @ coefs)
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


# numpy's SeedSequence (a pool of 4 uint32 words) and PCG64 seeding
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i = 0..count, as a column: the i-th hash
    xors with constant i and multiplies by constant i + 1."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# mixing round s hashes pool word s once for each other word, in word order,
# with hash constants 4 + 3s, 5 + 3s and 6 + 3s; word s itself takes a spare
# constant and is put back after the round
_ROUND = np.array([[4, 4, 5, 6], [7, 8, 8, 9], [10, 11, 12, 12], [13, 14, 15, 16]])
_ROUND_IN, _ROUND_OUT = _HASH_A[_ROUND], _HASH_A[_ROUND + 1]


def _hashmix(values, const_in, const_out):
    v = (values ^ const_in) * const_out
    return v ^ (v >> 16)


def _mix(x, y):
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ (r >> 16)


def _seed_state(key, n_words: int = 1) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(n_words)``, n_words <= 8,
    for a batch of keys at once, with shape (n_words, *batch shape).

    The key's entries are non-negative integers or integer arrays that
    broadcast together.  Each key is the little-endian 32-bit words of its
    entries, at least one word each, as SeedSequence splits it.  The hash
    constants do not depend on the data, so each step of the pool mixing is
    one operation on a block of pool words of every key.
    """
    shape = np.broadcast(*map(np.asarray, key)).shape
    rows, same_length = [], True
    for entry in map(np.atleast_1d, key):
        if (entry < 0).any():
            raise ValueError("expected non-negative integer")
        rows.append(entry & _MASK32)
        while (entry := entry >> 32).any():
            same_length &= bool(entry.all())
            rows.append(entry & _MASK32)
    if not same_length:  # keys of different word counts: one key at a time
        keys = zip(*(np.broadcast_to(e, shape).ravel().tolist() for e in key))
        state = [_seed_state(k, n_words) for k in keys]
        return np.stack(state, axis=-1).reshape((n_words,) + shape)
    # a key shorter than the pool is padded with zero words
    words = np.zeros((max(4, len(rows)),) + (shape or (1,)), dtype=np.uint32)
    for i, row in enumerate(rows):
        words[i] = row
    words = words.reshape(len(words), -1)

    pool = _hashmix(words[:4], _HASH_A[:4], _HASH_A[1:5])
    for s in range(4):
        mixed = _mix(pool, _hashmix(pool[s], _ROUND_IN[s], _ROUND_OUT[s]))
        mixed[s] = pool[s]
        pool = mixed
    for s in range(4, len(words)):  # each word past the pool mixes into all 4
        c = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * s + 4)[4 * s :]
        pool = _mix(pool, _hashmix(words[s], c[:-1], c[1:]))
    b = _HASH_B[: n_words + 1]
    state = _hashmix(pool[np.arange(n_words) % 4], b[:-1], b[1:])
    return state.reshape((n_words,) + shape)


def _streams(*key):
    """Yield one ``Generator`` per key of a broadcast batch, in C order, each
    in the state of ``np.random.default_rng(np.random.SeedSequence(key))``.

    PCG64 takes its 128-bit initstate and initseq from
    ``generate_state(4, np.uint64)``; then inc = (initseq << 1) | 1 and
    state = ((inc + initstate) M + inc) mod 2^128, M its multiplier.  One
    Generator, local to the call, is reused: draw from each key's stream
    before taking the next.
    """
    words = _seed_state(key, 8).reshape(8, -1).astype(np.uint64)
    seeds = (words[0::2] | words[1::2] << 32).T.tolist()
    rng = np.random.Generator(np.random.PCG64())
    for state_hi, state_lo, seq_hi, seq_lo in seeds:
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def readout_coefficient(fx, duration: float, noise: NoiseModel | None, shot_seed=0):
    """Sine-coefficient estimate (Hz) of a shot whose coherent state has
    second-frame <Fx> = fx.

    ``noise=None`` is the exact noiseless limit fx / (2 pi T).  Otherwise the
    pi/2-pulse populations (((1-x)/2)^2, (1-x^2)/2, ((1+x)/2)^2) are counted
    with one Poisson atom number and one multinomial draw per shot, on stream
    (noise.seed, shot_seed, 1), and read as (n_minus - n_plus) / (2 pi T
    atoms).  Array ``fx`` and ``shot_seed`` broadcast and give an array;
    scalars give a float.
    """
    fx, seeds = np.broadcast_arrays(np.asarray(fx, dtype=float), shot_seed)
    streams = None if noise is None else _streams(noise.seed, seeds, 1)
    return _count_readout(fx, duration, noise, streams)


def _count_readout(fx, duration: float, noise: NoiseModel | None, streams):
    """:func:`readout_coefficient` of array ``fx``, counted on ``streams`` in C order."""
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
        for i, rng in zip(np.ndindex(fx.shape), streams):
            atoms = max(1, int(rng.poisson(noise.mean_atoms)))
            n_plus, _, n_minus = (int(c) for c in rng.multinomial(atoms, probs[i]))
            values[i] = (n_minus - n_plus) / (2.0 * np.pi * duration * atoms)
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
    drift, streams = 0.0, None
    if noise is not None:  # drift on stream (noise.seed, shot_seed, 0), counts on 1
        streams = _streams(noise.seed, shot_seed, [0, 1])
        drift = next(streams).normal(0.0, noise.bias_drift_std_hz)
    params = SensorParams(0.0, rabi_hz, 0.0, duration, min(step, 1.0 / (50.0 * rabi_hz)))
    # the coherent state of spinor (u, v) = (-conj(beta), conj(alpha)) has
    # <Fx> = 2 Re(conj(u) v); the second-frame rotation about x keeps it
    alpha, beta = _rotating_frame_pair(sine_interpolant(waveform), params, drift)
    fx = -2.0 * float(np.real(np.conj(alpha) * beta))
    return _count_readout(np.asarray(fx), duration, noise, streams)


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
        for i, rng in zip(np.ndindex(values.shape), _streams(noise.seed, seeds, 2)):
            drift = rng.normal(0.0, noise.bias_drift_std_hz)
            values[i] = values[i] + drift + rng.normal(0.0, shot_std)
    return float(values) if values.ndim == 0 else values
