"""Grids, unit conventions, pulse waveform synthesis and artefact writes."""

import json
import os
import re
import stat

import numpy as np
import pytest
from oracles import csv_rows_text

from sparsemag import detection, experiments, recovery
from sparsemag.grids import (
    PulseSpec,
    TimeGrid,
    Waveform,
    read_csv_columns,
    synth_waveform,
    waveform_from_csv,
    waveform_to_csv,
    write_csv_columns,
    write_text,
)


@pytest.mark.parametrize(
    "n_grid,dt,duration,df,bandwidth",
    [
        (100, 50e-6, 5e-3, 100.0, 10e3),
        (2, 1.0, 2.0, 0.25, 0.5),
        (16, 1e-3, 16e-3, 31.25, 500.0),
    ],
)
def test_time_grid_frequency_pairing(n_grid, dt, duration, df, bandwidth):
    tgrid = TimeGrid(n_grid, dt)
    assert tgrid.duration == pytest.approx(duration, rel=1e-15)
    assert tgrid.df == pytest.approx(df, rel=1e-15)
    assert tgrid.bandwidth == pytest.approx(bandwidth, rel=1e-15)
    # pairing identities df = 1/(2T), W = 1/(2 dt); df is exactly 1/(2T),
    # the value every freq_hz cell is written from
    assert tgrid.df == 1.0 / (2.0 * tgrid.duration)
    assert tgrid.bandwidth == pytest.approx(1.0 / (2.0 * dt), rel=1e-15)


def test_time_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeGrid(1, 1e-3)
    with pytest.raises(ValueError):
        TimeGrid(10, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(10, -1e-6)


@pytest.mark.parametrize("n_grid", [100.0, np.float64(100.0), "100", None])
def test_time_grid_rejects_a_non_integer_n_grid(n_grid):
    message = f"n_grid must be an integer, got {n_grid!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TimeGrid(n_grid, 5e-5)


@pytest.mark.parametrize("n_grid", [np.int64(100), np.int32(100), np.uint16(100)])
def test_time_grid_takes_numpy_integers(n_grid):
    waveform = synth_waveform(TimeGrid(n_grid, 5e-5), [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    expected = synth_waveform(TimeGrid(100, 5e-5), [PulseSpec(1000.0, 200e-6, 1.0e-3)])
    assert waveform.samples.tobytes() == expected.samples.tobytes()


def test_grid_sample_axes():
    tgrid = TimeGrid(100, 50e-6)
    assert tgrid.times.shape == (99,)
    assert tgrid.times[0] == pytest.approx(50e-6)
    assert tgrid.times[-1] == pytest.approx(4.95e-3)
    assert tgrid.frequencies[0] == pytest.approx(100.0)
    assert tgrid.frequencies[-1] == pytest.approx(9900.0)


def test_synth_aligned_pulse_samples():
    tgrid = TimeGrid(100, 50e-6)
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
    tgrid = TimeGrid(100, 50e-6)
    waveform = synth_waveform(tgrid, [])
    assert np.all(waveform.samples == 0.0)


def test_synth_offset_pulse_matches_pointwise_formula():
    tgrid = TimeGrid(100, 50e-6)
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
    tgrid = TimeGrid(100, 50e-6)
    p1 = PulseSpec(1000.0, 200e-6, 1.025e-3)
    p2 = PulseSpec(-400.0, 300e-6, 3.1e-3)
    combined = synth_waveform(tgrid, [p1, p2])
    separate = synth_waveform(tgrid, [p1]).samples + synth_waveform(tgrid, [p2]).samples
    np.testing.assert_allclose(combined.samples, separate, atol=1e-12)


def test_synth_amplitude_bound():
    tgrid = TimeGrid(100, 50e-6)
    pulses = [
        PulseSpec(1000.0, 200e-6, 1.025e-3),
        PulseSpec(700.0, 500e-6, 1.1e-3),
        PulseSpec(-300.0, 200e-6, 4.0e-3),
    ]
    waveform = synth_waveform(tgrid, pulses)
    bound = sum(abs(p.amplitude) for p in pulses)
    assert np.max(np.abs(waveform.samples)) <= bound + 1e-9


def test_synth_rejects_out_of_range_pulse():
    tgrid = TimeGrid(100, 50e-6)
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


@pytest.mark.parametrize("n_grid, dt", [(100, 1e308), (100, 1e306), (2, 5e307)])
def test_time_grid_rejects_overflowing_span(n_grid, dt):
    # N*dt, or the 2*pi*T of the phase and readout formulas, would be inf
    with pytest.raises(ValueError, match=r"span 2\*pi\*n_grid\*dt must be finite"):
        TimeGrid(n_grid, dt)


def test_waveform_csv_round_trip(tmp_path):
    tgrid = TimeGrid(100, 50e-6)
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


@pytest.mark.parametrize(
    "times",
    [
        ["0.00005", "0.0001", "0.0002", "0.0003"],  # spacing doubles halfway
        ["0.00005", "0.0001", "0.00015", "0.00015"],  # repeated time
        ["0.00005", "0.00015", "0.00025", "0.00035"],  # first time is not dt
        ["1e305", "2e305", "3e305", "-1.7976e308"],  # its difference from j*dt overflows
    ],
)
def test_waveform_csv_rejects_non_uniform_times(tmp_path, times):
    path = tmp_path / "wf.csv"
    path.write_text("time_s,gamma_b_hz\n" + "".join(f"{t},1\n" for t in times))
    with pytest.raises(ValueError, match="time column"):
        waveform_from_csv(path)


# ------------------------------------------------------------- CSV columns
#
# The column writer must give the bytes of the csv.writer rows it replaced.

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 0.1, 1e308, -1e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("columns", [
    (EDGE_FLOATS,),
    (np.array(EDGE_FLOATS), EDGE_FLOATS[::-1]),
    (np.array([0.1, -0.0, 1e-05, 1e-45, np.inf], dtype=np.float32),),
    (np.arange(-5, 6, dtype=np.int64), EDGE_FLOATS),
    (np.array([0, 7, 2**32 - 1], dtype=np.uint32), [1, 2, 3], (0.5, 2, 1e-05)),
    ([2**63, 0], [np.int64(-(2**63)), np.int64(2**63 - 1)]),
    ([], []),
    (),
])
def test_column_writer_matches_the_csv_writer_rows(tmp_path, columns):
    # each column is one kind: ints as they are, anything else as a float
    header = [f"c{i}" for i in range(len(columns))]
    ints = [np.asarray(column).dtype.kind in "iu" for column in columns]
    rows = [[v if i else float(v) for v, i in zip(row, ints)] for row in zip(*columns)]
    path = tmp_path / "cols.csv"
    write_csv_columns(path, header, *columns)
    assert path.read_bytes() == csv_rows_text(header, rows).encode()


def test_column_writer_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv_columns(tmp_path / "cols.csv", ["a", "b"], [1.0, 2.0], [3.0])


def test_csv_columns_round_trip_bit_for_bit(tmp_path):
    bits = np.random.default_rng(5).integers(0, 2**64, 2000, dtype=np.uint64)
    values = bits.view(float)
    values = np.concatenate([values[np.isfinite(values)], EDGE_FLOATS[:-1]])
    path = tmp_path / "cols.csv"
    write_csv_columns(path, ["k", "x", "y"], np.arange(values.size), values, values[::-1])
    ks, xs, ys = read_csv_columns(path, (int, float, float), ["k", "x", "y"])
    assert ks == list(range(values.size))
    for column, expected in ((xs, values), (ys, values[::-1])):
        read = np.array(column)
        np.testing.assert_array_equal(read.view(np.uint64), expected.view(np.uint64))


def test_read_csv_columns_of_a_header_only_file(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("a,b,c\n")
    assert read_csv_columns(path, (int, float, str), ["a", "b", "c"]) == [[], [], []]


@pytest.mark.parametrize("convert, cell", [(int, "1.5"), (int, ""), (float, "abc"), (float, "1,5")])
def test_read_csv_columns_names_the_file_and_column_of_a_bad_cell(tmp_path, convert, cell):
    path = tmp_path / "cols.csv"
    path.write_text(f'a,b\n1,2\n3,"{cell}"\n')
    message = re.escape(f"CSV {path}: column b: ") + ".*" + re.escape(repr(cell))
    with pytest.raises(ValueError, match=message):
        read_csv_columns(path, (int, convert), ["a", "b"])


# --------------------------------------------------------- artefact writes
#
# Every artefact goes through write_text, which rewrites a file in place
# instead of truncating it to zero when it is opened.


def test_write_text_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, "a,b\r\n" + "1.0,2.0\r\n" * 500)
    write_text(path, "a,b\r\n3.0,4.0\r\n")
    assert path.read_bytes() == b"a,b\r\n3.0,4.0\r\n"
    write_text(path, "")
    assert path.read_bytes() == b""


def test_write_text_keeps_open_permissions(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    path = tmp_path / "new.json"
    write_text(path, "{}")
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    path.chmod(0o600)
    write_text(path, "{}\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_text_follows_symlink(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old contents, longer than the new ones\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b"new\n"


def test_write_text_keeps_hardlink(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("old contents, longer than the new ones\n")
    os.link(first, second)
    write_text(first, "new\n")
    assert second.read_bytes() == b"new\n"
    assert first.stat().st_ino == second.stat().st_ino


def test_write_text_does_not_cut_a_fifo(tmp_path):
    # a FIFO (or a piped /dev/stdout) has no length to cut, and ftruncate on
    # it fails: only a regular file is cut
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(fifo, "x,y\r\n")
        assert os.read(reader, 64) == b"x,y\r\n"
    finally:
        os.close(reader)
    write_text(os.devnull, "x\n")


def test_write_text_missing_directory_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_text(tmp_path / "missing" / "out.csv", "x\n")


def test_artefact_writers_open_without_truncation(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    result = recovery.RecoveryResult(np.zeros(3), 7, True, 2.5)
    for _ in range(2):  # a new file, then a rewrite of it
        write_csv_columns(tmp_path / "rows.csv", ["k", "x"], [1, 2], [0.5, 1.5])
        experiments.write_manifest(tmp_path / "m.json", "synth", {"n": 100}, 0, ["a.csv"])
        recovery.result_metadata_to_json(result, 1.04, tmp_path / "meta.json")
        detection.auc_to_json(0.75, tmp_path / "auc.json")
    assert len(flags) == 8
    assert not any(flag & os.O_TRUNC for flag in flags)
    assert (tmp_path / "rows.csv").read_bytes() == b"k,x\r\n1,0.5\r\n2,1.5\r\n"
    assert json.loads((tmp_path / "m.json").read_text())["output_paths"] == ["a.csv"]
    assert json.loads((tmp_path / "meta.json").read_text())["iterations_used"] == 7
    assert (tmp_path / "auc.json").read_text() == '{"auc": 0.75}'
