"""Shot-level spin-1 sensor simulation and its Magnus closed form."""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

import oracles
from oracles import FX, FY, FZ, STATE_MINUS_Z, expectation, second_frame_state, spin1_rotation
from sparsemag import sensor
from sparsemag.experiments import simulate_measurements

from sparsemag.grids import PulseSpec, TimeGrid, synth_waveform
from sparsemag.sensor import (
    NoiseModel,
    SensorParams,
    evolve_lab_frame,
    evolve_rotating_frame,
    magnus_prediction,
    magnus_quadratures,
    magnus_state,
    measure_sine_coefficient,
    ramsey_sample,
    readout_coefficient,
)
from sparsemag.seeds import _BLOCK_MIN_KEYS, RAMSEY_NOISE
from sparsemag.transform import SubsampleSet, apply_dst, dst_matrix, sine_interpolant


def zero_signal(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _norm_sq(psi):
    return float(np.real(np.vdot(psi, psi)))


def test_spin_operators_commutation():
    np.testing.assert_allclose(FX @ FY - FY @ FX, 1j * FZ, atol=1e-14)
    np.testing.assert_allclose(FY @ FZ - FZ @ FY, 1j * FX, atol=1e-14)
    np.testing.assert_allclose(FZ @ FX - FX @ FZ, 1j * FY, atol=1e-14)


def test_spin1_rotation_matches_expm():
    rng = np.random.default_rng(0)
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-3.0, 3.0)
        generator = axis[0] * FX + axis[1] * FY + axis[2] * FZ
        np.testing.assert_allclose(
            spin1_rotation(axis, angle), expm(-1j * angle * generator), atol=1e-12
        )


def test_rabi_flop_half_period():
    # zero signal for T = 1/(2 rabi): a pi rotation about x takes |-1> to |+1>
    rabi = 1000.0
    params = SensorParams(0.0, rabi, 0.0, 1.0 / (2.0 * rabi), 1e-5)
    state = evolve_rotating_frame(zero_signal, params)
    assert state.shape == (3,) and state.dtype == complex
    assert expectation(state, FZ) == pytest.approx(1.0, abs=1e-9)
    assert abs(_norm_sq(state) - 1.0) < 1e-10


def test_rotation_about_x_preserves_fx():
    params = SensorParams(0.0, 1000.0, 0.0, 3.3e-3, 1e-5)
    state = evolve_rotating_frame(zero_signal, params)
    assert expectation(state, FX) == pytest.approx(0.0, abs=1e-12)


def test_evolve_rejects_large_step():
    with pytest.raises(ValueError):
        evolve_rotating_frame(
            zero_signal, SensorParams(0.0, 1000.0, 0.0, 5e-3, 1e-3)
        )


def test_norm_preserved_with_signal():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    params = SensorParams(0.0, 1000.0, 0.0, tgrid.duration, 1e-5)
    state = evolve_rotating_frame(signal, params, drift_hz=150.0)
    assert abs(_norm_sq(state) - 1.0) < 1e-10


def test_magnus_coefficients_quadratures():
    # the Simpson oracle of the closed-form quadratures, on analytic integrals
    rabi = 1000.0
    duration = 5e-3
    omega = 2.0 * np.pi * rabi

    a, b = oracles.magnus_coefficients(lambda t: 100.0 * np.sin(omega * t), rabi, duration)
    assert a == pytest.approx(2.0 * np.pi * 100.0 * duration / 2.0, rel=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)

    assert oracles.magnus_coefficients(zero_signal, rabi, duration) == (0.0, 0.0)

    a, b = oracles.magnus_coefficients(lambda t: 100.0 * np.cos(omega * t), rabi, duration)
    assert a == pytest.approx(0.0, abs=1e-6)
    assert b == pytest.approx(2.0 * np.pi * 100.0 * duration / 2.0, rel=1e-6)


def test_magnus_prediction_closed_form():
    assert magnus_prediction(0.0, 0.0) == 0.0
    assert magnus_prediction(np.pi / 2.0, 0.0) == pytest.approx(1.0)
    assert magnus_prediction(0.1, 0.0) == pytest.approx(np.sin(0.1), rel=1e-12)
    # mixed quadratures: sin(r)/r * a
    assert magnus_prediction(0.3, 0.4) == pytest.approx(np.sin(0.5) / 0.5 * 0.3)


def test_simulation_matches_magnus_on_pulse():
    # second-frame <Fx> of the full unitary simulation vs the closed form
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(100.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    rabi = 1000.0
    params = SensorParams(0.0, rabi, 0.0, tgrid.duration, 1e-6)
    state = second_frame_state(evolve_rotating_frame(signal, params), params)
    k = int(round(2.0 * rabi * tgrid.duration))
    a, b = magnus_quadratures(signal.coefs, tgrid.duration)
    predicted = magnus_prediction(a[k - 1], b[k - 1])
    assert expectation(state, FX) == pytest.approx(predicted, abs=1e-3)


def test_magnus_state_expectation_consistency():
    state = magnus_state(0.7, -0.4)
    assert expectation(state, FX) == pytest.approx(magnus_prediction(0.7, -0.4), abs=1e-12)
    assert abs(_norm_sq(state) - 1.0) < 1e-12
    # the closed form is exp(+i (a Fy + b Fz)) |m=-1>
    np.testing.assert_allclose(
        state, expm(1j * (0.7 * FY - 0.4 * FZ)) @ STATE_MINUS_Z, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(magnus_state(0.0, 0.0), STATE_MINUS_Z)


def test_readout_determinism_and_null_signal():
    noise = NoiseModel(0.0, 1e7, seed=3)
    fx = magnus_prediction(0.0, 0.0)
    value1 = readout_coefficient(fx, 5e-3, noise, shot_seed=5)
    value2 = readout_coefficient(fx, 5e-3, noise, shot_seed=5)
    assert isinstance(value1, float)
    assert value1 == value2
    assert value1 == pytest.approx(0.0, abs=0.05)
    assert readout_coefficient(fx, 5e-3, None) == 0.0


def test_readout_statistical_mean():
    # state with known second-frame <Fx> = 0.2 measured with 1e6 atoms
    a = float(np.arcsin(0.2))
    fx = expectation(magnus_state(a, 0.0), FX)
    duration = 5e-3
    noise = NoiseModel(0.0, 1e6, seed=9)
    estimate = readout_coefficient(fx, duration, noise, shot_seed=1)
    expected = 0.2 / (2.0 * np.pi * duration)
    sigma = np.sqrt(0.5 / 1e6) / (2.0 * np.pi * duration)
    assert abs(estimate - expected) < 3.0 * sigma


def test_readout_rejects_unnormalised_state():
    # |psi|^2 = 2 gives <Fx> = sqrt(2), which no spin-1 state reaches
    fx = expectation(np.array([1.0, 1.0, 0.0]), FX)
    for noise in (NoiseModel(), None):
        with pytest.raises(ValueError):
            readout_coefficient(fx, 5e-3, noise, 0)
        with pytest.raises(ValueError):
            readout_coefficient([0.5, np.nan], 5e-3, noise, [0, 1])


def test_measure_zero_waveform_is_zero():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    for k in (1, 50, 99):
        assert measure_sine_coefficient(waveform, k, None) == pytest.approx(
            0.0, abs=1e-9
        )


def test_measure_unitary_single_shot_matches_dst():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(100.0, 200e-6, 1.025e-3)])
    coefs = apply_dst(dst_matrix(100), waveform)
    k = int(np.argmax(np.abs(coefs))) + 1
    value = measure_sine_coefficient(waveform, k, None, step=1e-6)
    assert value == pytest.approx(coefs[k - 1], rel=0.02)


def test_measure_linearity_weak_regime():
    tgrid = TimeGrid(100, 50e-6)
    base = synth_waveform(tgrid, [PulseSpec(50.0, 200e-6, 1.025e-3)])
    double = synth_waveform(tgrid, [PulseSpec(100.0, 200e-6, 1.025e-3)])
    k = 21
    v1 = oracles.magnus_shot(base, k, None)
    v2 = oracles.magnus_shot(double, k, None)
    assert v2 == pytest.approx(2.0 * v1, rel=0.01)


def test_measure_shot_noise_scale():
    # repeated noisy shots at one k: sample std within a factor 2 of the
    # drift-propagation + multinomial prediction
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    noise = NoiseModel(200.0, 1000.0, seed=0)
    k = 33  # odd index, weak-drift (linear) regime
    values = np.array([oracles.magnus_shot(waveform, k, noise, s) for s in range(200)])
    duration = tgrid.duration
    drift_part = 200.0 * 2.0 / (np.pi * k)
    shot_part = np.sqrt(0.5 / 1000.0) / (2.0 * np.pi * duration)
    predicted = np.hypot(drift_part, shot_part)
    assert predicted / 2.0 < values.std() < predicted * 2.0


def test_measure_shot_determinism():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    noise = NoiseModel(200.0, 1000.0, seed=4)
    a = measure_sine_coefficient(waveform, 17, noise, shot_seed=2)
    b = measure_sine_coefficient(waveform, 17, noise, shot_seed=2)
    assert a == b


def test_measure_validates_k():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    with pytest.raises(ValueError):
        measure_sine_coefficient(waveform, 0, None)
    with pytest.raises(ValueError):
        measure_sine_coefficient(waveform, 100, None)


def test_ramsey_constant_waveform():
    from sparsemag.grids import Waveform

    tgrid = TimeGrid(100, 50e-6)
    waveform = Waveform(np.full(99, 120.0), tgrid)
    value = ramsey_sample(waveform, 2.5e-3, 60e-6, None)
    assert value == pytest.approx(120.0, rel=0.05)


def test_ramsey_pulse_zero_crossing():
    # window centred on the pulse midpoint: odd symmetry integrates to ~0
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    value = ramsey_sample(waveform, 1.1e-3, 200e-6, None)
    assert abs(value) < 15.0


def test_ramsey_drift_statistics():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    noise = NoiseModel(200.0, 1000.0, seed=12)
    samples = np.array(
        [
            ramsey_sample(waveform, t, 60e-6, noise, shot_seed=j)
            for j, t in enumerate(tgrid.times)
        ]
    )
    assert 140.0 < samples.std() < 260.0


def test_ramsey_window_validation():
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    with pytest.raises(ValueError):
        ramsey_sample(waveform, 2.5e-3, 0.0, None)
    with pytest.raises(ValueError):
        ramsey_sample(waveform, 10.0, 60e-6, None)


def test_lab_frame_fz_eigenstate():
    # zero drive: |-1> only accumulates phase under larmor Fz
    params = SensorParams(603e3, 1e-12, 603e3, 0.1e-3, 1.0 / (50.0 * 603e3))
    with pytest.raises(ValueError):
        SensorParams(603e3, 0.0, 603e3, 0.1e-3, 1e-8)
    populations = np.abs(evolve_lab_frame(zero_signal, params)) ** 2
    assert populations[2] == pytest.approx(1.0, abs=1e-9)


def test_lab_frame_resonant_reduction():
    # zero larmor, zero rf: the drive is a constant 2*Omega coupling on Fx;
    # compare against the direct matrix exponential
    rabi = 1000.0
    duration = 0.31e-3
    params = SensorParams(0.0, rabi, 0.0, duration, 1e-6)
    state = evolve_lab_frame(zero_signal, params)
    u = expm(-1j * duration * 2.0 * (2.0 * np.pi * rabi) * FX)
    expected = u @ STATE_MINUS_Z
    overlap = abs(np.vdot(expected, state))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_lab_frame_step_validation():
    with pytest.raises(ValueError):
        evolve_lab_frame(zero_signal, SensorParams(603e3, 1000.0, 603e3, 5e-4, 1e-4))


def test_lab_vs_rotating_frame_populations():
    # RWA check at reduced duration (full tolerance check lives in the
    # acceptance suite)
    larmor = 603e3
    rabi = 1000.0
    duration = 0.25e-3
    lab = evolve_lab_frame(
        zero_signal, SensorParams(larmor, rabi, larmor, duration, 1.0 / (60.0 * larmor))
    )
    rot = evolve_rotating_frame(
        zero_signal, SensorParams(larmor, rabi, larmor, duration, 1e-6)
    )
    np.testing.assert_allclose(np.abs(lab) ** 2, np.abs(rot) ** 2, atol=5e-3)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-1.0, 1000.0)
    with pytest.raises(ValueError):
        NoiseModel(200.0, 0.5)
    for drift, atoms in ((np.nan, 1000.0), (np.inf, 1000.0), (200.0, np.nan), (200.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(drift, atoms)


def test_noise_model_mean_atoms_limit_is_numpys_poisson_limit():
    limit = sensor._POISSON_MEAN_MAX
    NoiseModel(200.0, limit)
    np.random.default_rng(0).poisson(limit)
    with pytest.raises(ValueError, match="mean_atoms"):
        NoiseModel(200.0, np.nextafter(limit, np.inf))
    with pytest.raises(ValueError, match="lam"):  # numpy's own message
        np.random.default_rng(0).poisson(np.nextafter(limit, np.inf))


def test_magnus_quadratures_reject_overflow_without_warning():
    coefs = np.zeros(99)
    coefs[10] = 1.0
    with pytest.raises(ValueError, match="bias drift std too large"):
        magnus_quadratures(coefs, 1e-3, 1e308)
    with pytest.raises(ValueError, match="Magnus quadratures overflow"):
        magnus_quadratures(coefs * 1e300, 1e10)


# ------------------------------------------------ the kernels as first written
#
# Oracles for the fast kernels: the Ramsey window mean by 201-node Simpson
# quadrature, the interpolant summed as sin(outer(t, w)) @ m at every step
# midpoint, and the step rotations applied to the state one at a time.


def _reference_ramsey(waveform, center_time, window, noise, shot_seed=0):
    duration = waveform.grid.duration
    lo = min(max(center_time - window / 2.0, 0.0), duration)
    hi = min(max(center_time + window / 2.0, 0.0), duration)
    signal = sine_interpolant(waveform)
    t = np.linspace(lo, hi, 201)
    mean_field = simpson(signal(t), x=t) / (hi - lo)
    if noise is None:
        return float(mean_field)
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, shot_seed, 2)))
    drift = rng.normal(0.0, noise.bias_drift_std_hz)
    shot_std = np.sqrt(1.0 / (2.0 * noise.mean_atoms)) / (2.0 * np.pi * window)
    return float(mean_field + drift + rng.normal(0.0, shot_std))


def _reference_evolve(psi0, unitaries):
    psi = psi0.copy()
    for u in unitaries:
        psi = u @ psi
    return psi


def _reference_unitary_shot(waveform, k, noise, shot_seed=0, step=1e-6):
    duration = waveform.grid.duration
    rabi_hz = k / (2.0 * duration)
    params = SensorParams(0.0, rabi_hz, 0.0, duration, min(step, 1.0 / (50.0 * rabi_hz)))
    coefs = apply_dst(dst_matrix(waveform.grid.n_grid), waveform)
    omega = np.pi * np.arange(1, waveform.grid.n_grid) / duration
    n_steps = max(1, int(np.ceil(duration / params.step - 1e-9)))
    dt = duration / n_steps
    t = (np.arange(n_steps) + 0.5) * dt
    drift = 0.0 if noise is None else oracles.shot_drift(noise, shot_seed)
    field = 2.0 * np.sin(np.multiply.outer(t, omega)) @ coefs
    unitaries = oracles.step_unitaries(
        np.full(n_steps, 2.0 * np.pi * rabi_hz), -2.0 * np.pi * (field + drift), dt
    )
    state = _reference_evolve(STATE_MINUS_Z, unitaries)
    if noise is not None:
        return oracles.extract_coefficient(
            oracles.readout(state, params, noise, shot_seed), duration
        )
    p = oracles.readout_probabilities(second_frame_state(state, params))
    return (p[2] - p[0]) / (2.0 * np.pi * duration)


def _pulse_pool(count, seed=0):
    """1- and 2-pulse 1 kHz waveforms with seeded, separated start times."""
    tgrid = TimeGrid(100, 50e-6)
    rng = np.random.default_rng(seed)
    pool = []
    for index in range(count):
        starts = []
        while len(starts) < 1 + index % 2:
            t0 = float(rng.uniform(tgrid.dt, tgrid.duration - 200e-6))
            if all(abs(t0 - t) >= 400e-6 for t in starts):
                starts.append(t0)
        pool.append(synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, t0) for t0 in starts]))
    return pool


def test_ramsey_matches_simpson_reference():
    # the exact window mean moves the 201-node Simpson value only by the
    # quadrature error: at most 2.1e-8 relative over 64 such waveforms
    for index, waveform in enumerate(_pulse_pool(16)):
        noise = None if index % 4 == 0 else NoiseModel(200.0, 1000.0, seed=index)
        times = waveform.grid.times
        seeds = [oracles.derive_seed(index, 2, j) for j in range(times.size)]
        fast = ramsey_sample(waveform, times, 60e-6, noise, seeds)
        slow = np.array(
            [_reference_ramsey(waveform, t, 60e-6, noise, s) for t, s in zip(times, seeds)]
        )
        np.testing.assert_array_less(
            np.abs(fast - slow), 1e-7 * np.maximum(np.abs(slow), 1.0)
        )


def test_ramsey_vector_call_equals_scalar_calls():
    waveform = _pulse_pool(2)[1]
    noise = NoiseModel(200.0, 1000.0, seed=3)
    # windows clipped at both ends of [0, T] included
    centres = np.array([0.0, 10e-6, 1.2e-3, 2.5e-3, 4.99e-3, 5e-3])
    seeds = np.arange(7, 13)
    vector = ramsey_sample(waveform, centres, 60e-6, noise, seeds)
    assert vector.shape == (6,)
    for value, t, seed in zip(vector, centres, seeds):
        scalar = ramsey_sample(waveform, float(t), 60e-6, noise, shot_seed=int(seed))
        assert isinstance(scalar, float)
        assert scalar == value
        assert scalar == pytest.approx(_reference_ramsey(waveform, t, 60e-6, noise, seed), rel=1e-7)
    # a scalar seed broadcasts over the windows
    np.testing.assert_array_equal(
        ramsey_sample(waveform, centres, 60e-6, noise, 5),
        ramsey_sample(waveform, centres, 60e-6, noise, np.full(6, 5)),
    )
    # a 2-D batch is the same windows in C order (its window means are one
    # batched matmul, so they may differ from the 1-D call's by round-off)
    np.testing.assert_allclose(
        ramsey_sample(waveform, centres.reshape(2, 3), 60e-6, noise, seeds.reshape(2, 3)),
        vector.reshape(2, 3), rtol=1e-14, atol=0,
    )
    with pytest.raises(ValueError):
        ramsey_sample(waveform, np.array([1e-3, 10.0]), 60e-6, None)


@pytest.mark.parametrize("n_pulses", [1, 2])
def test_noiseless_unitary_shot_matches_reference(n_pulses):
    waveform = _pulse_pool(2, seed=5)[n_pulses - 1]
    for k in (1, 2, 17, 50, 98, 99):
        fast = measure_sine_coefficient(waveform, k, None)
        slow = _reference_unitary_shot(waveform, k, None)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12 * max(abs(slow), 1.0))


def test_noiseless_unitary_shot_matches_reference_coarse_steps():
    # a step so large that the midpoint grid is coarser than the waveform's
    # grid: the interpolant's frequencies fold onto the n step frequencies
    waveform = _pulse_pool(2, seed=6)[1]
    for k in (1, 2, 3):  # 25, 50 and 75 steps for 99 frequencies
        fast = measure_sine_coefficient(waveform, k, None, step=1e-3)
        slow = _reference_unitary_shot(waveform, k, None, step=1e-3)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12 * max(abs(slow), 1.0))


def test_noisy_unitary_shots_equal_reference():
    # the atom counts must not move, so the noisy shots are bit-equal
    for index, waveform in enumerate(_pulse_pool(4, seed=9)):
        noise = NoiseModel(200.0, 1000.0, seed=100 + index)
        for k, shot_seed in ((3, 1), (17, 4), (60, 11), (99, 2)):
            assert measure_sine_coefficient(waveform, k, noise, shot_seed) == (
                _reference_unitary_shot(waveform, k, noise, shot_seed)
            )


def test_shots_equal_the_oracles_on_both_sides_of_the_seed_break_even():
    # a batch of fewer than _BLOCK_MIN_KEYS keys is seeded key by key, a
    # larger one by the block mixing: the bits must not tell them apart
    waveform = _pulse_pool(2, seed=6)[1]
    signal, duration = sine_interpolant(waveform), waveform.grid.duration
    noise = NoiseModel(200.0, 1000.0, seed=41)
    shot_std = np.sqrt(1.0 / (2.0 * noise.mean_atoms)) / (2.0 * np.pi * 60e-6)
    for n in (1, 2, _BLOCK_MIN_KEYS - 1, _BLOCK_MIN_KEYS, _BLOCK_MIN_KEYS + 1):
        centres, shot_seeds = waveform.grid.times[3 : 3 + n], np.arange(100, 100 + n)
        lo = np.clip(centres - 30e-6, 0.0, duration)
        hi = np.clip(centres + 30e-6, 0.0, duration)
        expected = []
        for mean, seed in zip(oracles.window_mean(signal, lo, hi).tolist(), shot_seeds.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence((noise.seed, seed, RAMSEY_NOISE)))
            drift = rng.normal(0.0, noise.bias_drift_std_hz)
            expected.append(mean + drift + rng.normal(0.0, shot_std))
        ramsey = ramsey_sample(waveform, centres, 60e-6, noise, shot_seeds)
        assert ramsey.tobytes() == np.array(expected).tobytes()
    for m in (1, 2, 3, 4):  # 2, 4, 6 and 8 drift and count keys
        subset = SubsampleSet(100, tuple(range(5, 5 + m)))
        values = simulate_measurements(waveform, subset, noise, master_seed=m).values
        assert values.tobytes() == oracles.simulate_measurements(waveform, subset, noise, m).tobytes()


def _su2_evolve(psi0, omega_x, omega_z, dt):
    return oracles.spin1_matrix(*sensor._evolve(omega_x, omega_z, dt)) @ psi0


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 1001])
def test_pairwise_evolve_matches_stepwise(n_steps):
    # the SU(2) pairs against the 3x3 oracle, from a state that is not
    # coherent, with every third step of zero magnitude
    rng = np.random.default_rng(n_steps)
    omega_x = rng.normal(scale=1e4, size=n_steps)
    omega_z = rng.normal(scale=1e4, size=n_steps)
    omega_x[::3] = omega_z[::3] = 0.0
    unitaries = oracles.step_unitaries(omega_x, omega_z, 1e-5)
    psi0 = np.array([0.6, 0.0, 0.8j])
    stepwise = _reference_evolve(psi0, unitaries)
    np.testing.assert_allclose(
        oracles.evolve_pairwise(psi0, unitaries), stepwise, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        _su2_evolve(psi0, omega_x, omega_z, 1e-5), stepwise, rtol=0, atol=1e-12
    )
    # from |m=-1>, the amplitudes are the last column of the pair's matrix
    pair = sensor._evolve(omega_x, omega_z, 1e-5)
    np.testing.assert_array_equal(
        sensor._minus_state(*pair), oracles.spin1_matrix(*pair) @ STATE_MINUS_Z
    )


def test_zero_magnitude_steps_are_identity():
    for n_steps in (1, 4, 5):
        assert sensor._evolve(np.zeros(n_steps), np.zeros(n_steps), 1e-5) == (1.0, 0.0)
    psi0 = np.array([0.6, 0.0, 0.8j])
    np.testing.assert_array_equal(_su2_evolve(psi0, np.zeros(5), np.zeros(5), 1e-5), psi0)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 1001])
def test_evolve_amplitudes_match_oracle(n_steps):
    tgrid = TimeGrid(100, 50e-6)
    signal = sine_interpolant(synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)]))
    duration = tgrid.duration
    dt = duration / n_steps
    t = (np.arange(n_steps) + 0.5) * dt
    field = signal(t)

    rabi = min(1000.0, 1.0 / (60.0 * dt))
    rot = evolve_rotating_frame(signal, SensorParams(0.0, rabi, 0.0, duration, dt), 150.0)
    unitaries = oracles.step_unitaries(
        np.full(n_steps, 2.0 * np.pi * rabi), -2.0 * np.pi * (field + 150.0), dt
    )
    np.testing.assert_allclose(
        rot, _reference_evolve(STATE_MINUS_Z, unitaries), rtol=0, atol=1e-12
    )

    larmor = 1.0 / (60.0 * dt)
    params = SensorParams(larmor, 0.1 * larmor, larmor, duration, dt)
    lab = evolve_lab_frame(signal, params)
    unitaries = oracles.step_unitaries(
        4.0 * np.pi * params.rabi_hz * np.cos(2.0 * np.pi * params.rf_hz * t),
        2.0 * np.pi * (larmor - field),
        dt,
    )
    np.testing.assert_allclose(
        lab, _reference_evolve(STATE_MINUS_Z, unitaries), rtol=0, atol=1e-12
    )


def test_shot_fx_equals_second_frame_expectation():
    # the shot reads <Fx> from the composed pair; the second-frame rotation
    # about x leaves it unchanged
    waveform = _pulse_pool(2, seed=5)[1]
    duration = waveform.grid.duration
    for k in (1, 17, 99):
        rabi = k / (2.0 * duration)
        params = SensorParams(0.0, rabi, 0.0, duration, min(1e-6, 1.0 / (50.0 * rabi)))
        state = evolve_rotating_frame(sine_interpolant(waveform), params)
        fx = measure_sine_coefficient(waveform, k, None) * 2.0 * np.pi * duration
        assert fx == pytest.approx(
            expectation(second_frame_state(state, params), FX), rel=0, abs=1e-12
        )


def test_step_taken_never_exceeds_step():
    # 2.9e-5 s at step 2e-5 rounds to one step of 2.9e-5, past the
    # 1/(50 rabi) guard; the fewest steps no wider than 2e-5 are two
    params = SensorParams(0.0, 1000.0, 0.0, 2.9e-5, 2e-5)
    midpoints, dt = sensor._time_steps(params.duration, params.step)
    assert midpoints.size == 2 and dt <= params.step
    unitaries = oracles.step_unitaries(np.full(2, 2.0 * np.pi * 1000.0), np.zeros(2), dt)
    np.testing.assert_allclose(
        evolve_rotating_frame(zero_signal, params),
        _reference_evolve(STATE_MINUS_Z, unitaries),
        rtol=0,
        atol=1e-12,
    )


def test_exact_multiples_keep_their_step_count():
    # a shot of a 100-sample, 50 us grid at 1 us, and criterion 4's lab frame
    assert sensor._time_steps(100 * 50e-6, 1e-6)[0].size == 5000
    assert sensor._time_steps(0.5e-3, 1.0 / (60.0 * 603e3))[0].size == 18090
    # 3 * 10e-6 / 1e-6 is 30.000000000000007 in floating point
    assert sensor._time_steps(3 * 10e-6, 1e-6)[0].size == 30


def test_interpolant_of_other_duration_is_called_directly():
    # a sine interpolant stepped over a duration other than its own cannot use
    # the DST-III midpoint evaluation; it must give the same state as a plain
    # callable
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    signal = sine_interpolant(waveform)
    params = SensorParams(0.0, 1000.0, 0.0, 3e-3, 1e-6)
    np.testing.assert_array_equal(
        evolve_rotating_frame(signal, params),
        evolve_rotating_frame(lambda t: signal(t), params),
    )


# ------------------------------------------- the coherent-state readout
#
# Oracles: the pi/2 pulse as a 3x3 rotation with normalised |psi|^2
# populations, and the per-shot simulate_measurements loop (tests/oracles.py).
# The atom counts must not move, so noisy values are compared for equality;
# noiseless values differ by the old p_minus - p_plus cancellation error only.

NOISELESS_HZ = 3e-14


def test_coherent_readout_matches_matrix_readout():
    rng = np.random.default_rng(17)
    duration = 5e-3
    noise = NoiseModel(200.0, 1000.0, seed=8)
    params = SensorParams(0.0, 1000.0, 0.0, duration, 1e-5)  # identity frame change
    for shot_seed in range(300):
        a, b = rng.uniform(-4.0, 4.0, size=2) * rng.choice([1e-3, 1.0])
        state = magnus_state(a, b)
        fx = expectation(state, FX)
        p = oracles.readout_probabilities(state)
        noiseless = (p[2] - p[0]) / (2.0 * np.pi * duration)
        assert abs(readout_coefficient(fx, duration, None) - noiseless) <= NOISELESS_HZ
        expected = oracles.extract_coefficient(
            oracles.readout(state, params, noise, shot_seed), duration
        )
        assert readout_coefficient(fx, duration, noise, shot_seed) == expected


def test_readout_vector_call_equals_scalar_calls():
    fx = np.array([-1.0, -0.3, 0.0, 0.41, 1.0])
    seeds = np.arange(20, 25)
    noise = NoiseModel(200.0, 700.0, seed=2)
    for model in (None, noise):
        vector = readout_coefficient(fx, 5e-3, model, seeds)
        assert vector.shape == (5,)
        for value, x, seed in zip(vector, fx, seeds):
            assert readout_coefficient(float(x), 5e-3, model, int(seed)) == value
        # a 2-D batch is the same shots in C order
        batch = np.array([[-0.3, 1.0, 0.0], [0.6, -1.0, 0.41]])
        batch_seeds = np.array([[20, 21, 22], [21, 22, 23]])
        values = readout_coefficient(batch, 5e-3, model, batch_seeds)
        assert values.shape == (2, 3)
        for value, x, seed in zip(values.ravel(), batch.ravel(), batch_seeds.ravel()):
            assert readout_coefficient(float(x), 5e-3, model, int(seed)) == value
    np.testing.assert_array_equal(readout_coefficient(fx, 5e-3, None), fx / (2 * np.pi * 5e-3))


@pytest.mark.parametrize("amplitude", [1000.0, 2000.0, 3000.0])
def test_simulate_measurements_matches_per_shot_loop(amplitude):
    tgrid = TimeGrid(100, 50e-6)
    for master_seed in (0, 7, 123):
        rng = np.random.default_rng(master_seed)
        starts = rng.uniform(tgrid.dt, tgrid.duration - 200e-6, size=1 + master_seed % 2)
        waveform = synth_waveform(tgrid, [PulseSpec(amplitude, 200e-6, t0) for t0 in starts])
        noise = NoiseModel(200.0, 1000.0, seed=master_seed % 5)
        indices = rng.choice(np.arange(1, 100), size=40, replace=False)
        subsets = (
            SubsampleSet(100, tuple(sorted(indices.tolist()))),
            SubsampleSet(100, (int(indices[0]),)),  # one shot on its own
            None,
        )
        for subset in subsets:
            np.testing.assert_array_equal(
                simulate_measurements(waveform, subset, noise, master_seed).values,
                oracles.simulate_measurements(waveform, subset, noise, master_seed),
            )
            fast = simulate_measurements(waveform, subset, None, master_seed).values
            slow = oracles.simulate_measurements(waveform, subset, None, master_seed)
            assert np.max(np.abs(fast - slow)) <= NOISELESS_HZ


def test_magnus_shot_matches_simpson_quadratures():
    # the exact quadratures move the Simpson shot only by the quadrature error
    waveform = _pulse_pool(2, seed=4)[1]
    duration = waveform.grid.duration
    signal = sine_interpolant(waveform)
    for k in (1, 9, 50, 99):
        coeffs = oracles.magnus_coefficients(signal, k / (2.0 * duration), duration, step=1e-6)
        p = oracles.readout_probabilities(magnus_state(*coeffs))
        simpson_shot = (p[2] - p[0]) / (2.0 * np.pi * duration)
        fast = simulate_measurements(waveform, SubsampleSet(100, (k,)), None).values[0]
        assert fast == pytest.approx(simpson_shot, abs=1e-5)
