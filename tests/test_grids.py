"""Grids, unit conventions and pulse waveform synthesis."""

import numpy as np
import pytest

from sparsemag.grids import (
    GAMMA_HZ_PER_NT,
    PulseSpec,
    TimeGrid,
    Waveform,
    hz_to_nanotesla,
    make_grids,
    nanotesla_to_hz,
    synth_waveform,
    waveform_from_csv,
    waveform_to_csv,
)


@pytest.mark.parametrize(
    "n_grid,dt,duration,df,bandwidth",
    [
        (100, 50e-6, 5e-3, 100.0, 10e3),
        (2, 1.0, 2.0, 0.25, 0.5),
        (16, 1e-3, 16e-3, 31.25, 500.0),
    ],
)
def test_make_grids_pairing(n_grid, dt, duration, df, bandwidth):
    tgrid, fgrid = make_grids(n_grid, dt)
    assert tgrid.duration == pytest.approx(duration, rel=1e-15)
    assert fgrid.df == pytest.approx(df, rel=1e-15)
    assert fgrid.bandwidth == pytest.approx(bandwidth, rel=1e-15)
    # pairing identities df = 1/(2T), W = 1/(2 dt)
    assert fgrid.df == pytest.approx(1.0 / (2.0 * tgrid.duration), rel=1e-15)
    assert fgrid.bandwidth == pytest.approx(1.0 / (2.0 * dt), rel=1e-15)


def test_make_grids_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grids(1, 1e-3)
    with pytest.raises(ValueError):
        make_grids(10, 0.0)
    with pytest.raises(ValueError):
        make_grids(10, -1e-6)


def test_grid_sample_axes():
    tgrid, fgrid = make_grids(100, 50e-6)
    assert tgrid.times.shape == (99,)
    assert tgrid.times[0] == pytest.approx(50e-6)
    assert tgrid.times[-1] == pytest.approx(4.95e-3)
    assert fgrid.frequencies[0] == pytest.approx(100.0)
    assert fgrid.frequencies[-1] == pytest.approx(9900.0)


def test_synth_aligned_pulse_samples():
    tgrid, _ = make_grids(100, 50e-6)
    pulse = PulseSpec(amplitude=1000.0, pulse_duration=200e-6, start_time=1.0e-3)
    waveform = synth_waveform(tgrid, [pulse])
    # grid-aligned single-cycle sine: samples at j = 20..23 are
    # sin(2*pi*{0,50,100,150}us / 200us) * 1000
    np.testing.assert_allclose(
        waveform.samples[19:23], [0.0, 1000.0, 0.0, -1000.0], atol=1e-9
    )
    others = np.delete(waveform.samples, [19, 20, 21, 22])
    # grid times carry float rounding, so "zero" samples are only zero to
    # amplitude * eps-level phase error
    assert np.max(np.abs(others)) < 1e-9
    # exactly two nonzero samples for the aligned pulse
    assert np.count_nonzero(np.abs(waveform.samples) > 1e-9) == 2


def test_synth_empty_pulse_list_is_zero():
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    assert np.all(waveform.samples == 0.0)


def test_synth_offset_pulse_matches_pointwise_formula():
    tgrid, _ = make_grids(100, 50e-6)
    pulse = PulseSpec(amplitude=1000.0, pulse_duration=200e-6, start_time=1.025e-3)
    waveform = synth_waveform(tgrid, [pulse])

    def closed_form(t):
        if t < pulse.start_time or t > pulse.start_time + pulse.pulse_duration:
            return 0.0
        return pulse.amplitude * np.sin(
            2.0 * np.pi * (t - pulse.start_time) / pulse.pulse_duration
        )

    expected = np.array([closed_form(t) for t in tgrid.times])
    np.testing.assert_allclose(waveform.samples, expected, atol=1e-9)
    nonzero = np.nonzero(np.abs(waveform.samples) > 1e-9)[0]
    # offset pulse covers ceil(tau_p/dt)+1 = 5 grid points at most, 4 nonzero here
    np.testing.assert_array_equal(nonzero, [20, 21, 22, 23])
    assert nonzero.size <= 5


def test_synth_is_linear_in_pulses():
    tgrid, _ = make_grids(100, 50e-6)
    p1 = PulseSpec(1000.0, 200e-6, 1.025e-3)
    p2 = PulseSpec(-400.0, 300e-6, 3.1e-3)
    combined = synth_waveform(tgrid, [p1, p2])
    separate = synth_waveform(tgrid, [p1]).samples + synth_waveform(tgrid, [p2]).samples
    np.testing.assert_allclose(combined.samples, separate, atol=1e-12)


def test_synth_amplitude_bound():
    tgrid, _ = make_grids(100, 50e-6)
    pulses = [
        PulseSpec(1000.0, 200e-6, 1.025e-3),
        PulseSpec(700.0, 500e-6, 1.1e-3),
        PulseSpec(-300.0, 200e-6, 4.0e-3),
    ]
    waveform = synth_waveform(tgrid, pulses)
    bound = sum(abs(p.amplitude) for p in pulses)
    assert np.max(np.abs(waveform.samples)) <= bound + 1e-9


def test_synth_rejects_out_of_range_pulse():
    tgrid, _ = make_grids(100, 50e-6)
    with pytest.raises(ValueError):
        synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 9.9e-3)])
    with pytest.raises(ValueError):
        synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, -1e-6)])


@pytest.mark.parametrize(
    "fields",
    [
        (np.nan, 200e-6, 1e-3),
        (1000.0, np.inf, 1e-3),
        (1000.0, 200e-6, np.nan),
        (1000.0, 200e-6, -np.inf),
        (1000.0, 0.0, 1e-3),
        (1000.0, -200e-6, 1e-3),
    ],
)
def test_pulse_spec_rejects_non_finite_or_empty_pulse(fields):
    # a NaN start time would pass synth_waveform's [0, T] check and sample to zero
    with pytest.raises(ValueError):
        PulseSpec(*fields)


def test_waveform_length_checked():
    tgrid = TimeGrid(100, 50e-6)
    with pytest.raises(ValueError):
        Waveform(np.zeros(100), tgrid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_rejects_non_finite_samples(bad):
    samples = np.zeros(99)
    samples[40] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Waveform(samples, TimeGrid(100, 50e-6))


@pytest.mark.parametrize("dt", [0.0, -1e-6, np.nan, np.inf])
def test_time_grid_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        TimeGrid(100, dt)


def test_unit_conversion_round_trip():
    # fixed sensor calibration: 1 kHz of gamma*B corresponds to 143 nT
    assert hz_to_nanotesla(1000.0) == pytest.approx(143.0, rel=1e-12)
    assert nanotesla_to_hz(143.0) == pytest.approx(1000.0, rel=1e-12)
    assert GAMMA_HZ_PER_NT == pytest.approx(6.993, rel=1e-3)
    values = np.array([0.0, 17.5, -250.0])
    np.testing.assert_allclose(nanotesla_to_hz(hz_to_nanotesla(values)), values)


def test_waveform_csv_round_trip(tmp_path):
    tgrid, _ = make_grids(100, 50e-6)
    waveform = synth_waveform(tgrid, [PulseSpec(1000.0, 200e-6, 1.025e-3)])
    path = tmp_path / "wf.csv"
    waveform_to_csv(waveform, path)
    loaded = waveform_from_csv(path)
    assert loaded.grid.n_grid == 100
    assert loaded.grid.dt == pytest.approx(50e-6)
    np.testing.assert_allclose(loaded.samples, waveform.samples)


def test_waveform_csv_accepts_decimal_uniform_times(tmp_path):
    # hand-typed decimal times are j*dt only to rounding
    path = tmp_path / "wf.csv"
    path.write_text("time_s,gamma_b_hz\n0.00005,1\n0.0001,2\n0.00015,3\n0.0002,4\n")
    loaded = waveform_from_csv(path)
    assert loaded.grid == TimeGrid(5, 0.00005)
    np.testing.assert_array_equal(loaded.samples, [1.0, 2.0, 3.0, 4.0])
    assert waveform_from_csv(path, dt=0.00005).grid == loaded.grid


@pytest.mark.parametrize(
    "times",
    [
        ["0.00005", "0.0001", "0.0002", "0.0003"],  # spacing doubles halfway
        ["0.00005", "0.0001", "0.00015", "0.00015"],  # repeated time
        ["0.00005", "0.00015", "0.00025", "0.00035"],  # first time is not dt
    ],
)
def test_waveform_csv_rejects_non_uniform_times(tmp_path, times):
    path = tmp_path / "wf.csv"
    path.write_text("time_s,gamma_b_hz\n" + "".join(f"{t},1\n" for t in times))
    with pytest.raises(ValueError, match="time column"):
        waveform_from_csv(path)


def test_waveform_csv_rejects_times_off_explicit_dt(tmp_path):
    tgrid, _ = make_grids(10, 50e-6)
    path = tmp_path / "wf.csv"
    waveform_to_csv(Waveform(np.ones(9), tgrid), path)
    with pytest.raises(ValueError, match="time column"):
        waveform_from_csv(path, dt=40e-6)
