"""Command-line interface behaviour and exit codes."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_session
from sparsemag import cli
from sparsemag.cli import main
from sparsemag.grids import TimeGrid, waveform_from_csv
from sparsemag.transform import apply_dst, dst_matrix, measurements_from_csv


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def pulse_csv(tmp_path):
    path = tmp_path / "wf.csv"
    code = run_cli(
        ["synth", "--n", 100, "--dt", 50e-6, "--pulses", "1.0e-3,1000,200e-6",
         "--out", path]
    )
    assert code == 0
    return path


def test_synth_reference_pulse(pulse_csv):
    waveform = waveform_from_csv(pulse_csv)
    assert waveform.grid.n_grid == 100
    np.testing.assert_allclose(
        waveform.samples[19:23], [0.0, 1000.0, 0.0, -1000.0], atol=1e-9
    )
    manifest = json.loads((pulse_csv.parent / "wf.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"


def test_synth_no_pulses_zero_waveform(tmp_path):
    out = tmp_path / "zero.csv"
    assert run_cli(["synth", "--n", 100, "--dt", 50e-6, "--out", out]) == 0
    assert np.all(waveform_from_csv(out).samples == 0.0)


def test_synth_pulse_outside_duration(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = run_cli(
        ["synth", "--pulses", "9.9e-3,1000,200e-6", "--n", 100, "--dt", 50e-6,
         "--out", out]
    )
    assert code == 4
    assert "error: numeric" in capsys.readouterr().err


def test_out_of_memory_is_a_numeric_error(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate (synth --n 1000000000000) exits 4 with one
    # line; the allocation is simulated, never made
    def too_large(grid, pulses):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "synth_waveform", too_large)
    code = run_cli(["synth", "--n", 100, "--dt", 50e-6, "--out", tmp_path / "wf.csv"])
    _assert_numeric_error(code, capsys, "Unable to allocate")


@pytest.mark.parametrize(
    "pulses", ["nan,1000,1e-4", "1e-3,nan,200e-6", "inf,1000,1e-4", "1e-3,1000,0", "1e-3,1000,-1e-4"]
)
def test_synth_rejects_non_finite_or_empty_pulse(tmp_path, capsys, pulses):
    out = tmp_path / "bad.csv"
    assert run_cli(["synth", "--pulses", pulses, "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--drift-std", "nan"], ["--drift-std", "inf"],
                                   ["--atoms", "inf"], ["--atoms", "nan"]])
def test_measure_rejects_non_finite_noise(tmp_path, pulse_csv, capsys, flags):
    out = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 10, *flags, "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["measure", "--in", "wf.csv", "--full"],
                                     ["tune", "--count", 1, "--lambda-count", 3]])
def test_no_noise_still_checks_the_noise_flags(tmp_path, pulse_csv, capsys, monkeypatch, command):
    # --no-noise draws no noise, but the manifest records every flag, where a
    # NaN or an infinity would be a bare NaN/Infinity token that is not JSON
    monkeypatch.chdir(tmp_path)
    code = run_cli([*command, "--no-noise", "--drift-std", "nan", "--atoms", "inf",
                    "--out", "q.csv"])
    _assert_numeric_error(code, capsys, "--drift-std nan: bias_drift_std_hz must be")
    assert not (tmp_path / "q.csv").exists() and not (tmp_path / "q.csv.manifest.json").exists()


@pytest.mark.parametrize("args, message", [
    (["synth", "--n", 100, "--dt", 1e308], "span 2*pi*n_grid*dt must be finite"),
    (["measure", "--m", 99, "--drift-std", 1e308], "bias drift std too large"),
    (["measure", "--m", 5, "--atoms", 1e300], "mean_atoms must be finite and in [1, 9.223e+18]"),
])
def test_overflowing_inputs_exit_4_with_one_line(tmp_path, pulse_csv, capsys, args, message):
    # no RuntimeWarning (Tier-1 turns warnings into errors) and no message
    # that names another quantity
    out = tmp_path / "out.csv"
    command = [*args[:1], "--in", pulse_csv, *args[1:]] if args[0] == "measure" else args
    assert run_cli([*command, "--out", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_synth_malformed_pulse_spec_usage_error(tmp_path, capsys):
    for spec, reason in (("1.0e-3,1000", "expected t0,amplitude,duration"),
                         ("a,1000,2e-4", "non-numeric field")):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["synth", "--pulses", spec, "--out", tmp_path / "x.csv"])
        assert excinfo.value.code == 2
        assert f"malformed pulse spec {spec!r}: {reason}" in capsys.readouterr().err


def test_measure_full_noiseless_matches_dst(tmp_path, pulse_csv):
    out = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--no-noise",
                    "--out", out]) == 0
    measured = measurements_from_csv(out, TimeGrid(100, 50e-6))
    assert measured.subsample.m == 99
    truth = apply_dst(dst_matrix(100), waveform_from_csv(pulse_csv))
    # Magnus tolerance at the full 1 kHz amplitude
    assert np.max(np.abs(measured.values - truth)) < 0.07 * np.max(np.abs(truth))


def test_measure_subset_row_count(tmp_path, pulse_csv):
    out = tmp_path / "m60.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--seed", 7,
                    "--out", out]) == 0
    assert measurements_from_csv(out, TimeGrid(100, 50e-6)).subsample.m == 60


def test_measure_m_out_of_range(tmp_path, pulse_csv, capsys):
    code = run_cli(["measure", "--in", pulse_csv, "--m", 200,
                    "--out", tmp_path / "m.csv"])
    assert code == 4
    assert "error: numeric" in capsys.readouterr().err


@pytest.mark.parametrize("n_grid, indices", [(200, [1, 150, 199]), (50, [1, 20, 49])])
def test_measure_rejects_subset_of_other_grid(tmp_path, pulse_csv, capsys, n_grid, indices):
    subset = tmp_path / "subset.json"
    subset.write_text(json.dumps({"n_grid": n_grid, "indices": indices}))
    out = tmp_path / "m.csv"
    code = run_cli(["measure", "--in", pulse_csv, "--subset", subset, "--out", out])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and f"N={n_grid}" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_measure_missing_input(tmp_path, capsys):
    code = run_cli(["measure", "--in", tmp_path / "nope.csv",
                    "--out", tmp_path / "m.csv"])
    assert code == 3
    assert "error: io" in capsys.readouterr().err


def test_recover_roundtrip_and_roc(tmp_path, pulse_csv):
    m_csv = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--seed", 7,
                    "--out", m_csv]) == 0
    rec_csv = tmp_path / "rec.csv"
    assert run_cli(["recover", "--measurements", m_csv, "--n", 100,
                    "--dt", 50e-6, "--out", rec_csv]) == 0
    meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
    assert meta["lambda"] == pytest.approx(1.04)
    recovered = np.loadtxt(rec_csv, delimiter=",", skiprows=1)
    assert recovered.shape == (99, 2)

    roc_csv = tmp_path / "roc.csv"
    assert run_cli(["roc", "--recovered", rec_csv, "--truth", pulse_csv,
                    "--out", roc_csv]) == 0
    auc = json.loads((tmp_path / "roc.csv.auc.json").read_text())["auc"]
    assert 0.5 <= auc <= 1.0


def test_recover_rejects_non_finite_measurement(tmp_path, pulse_csv, capsys):
    m_csv = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--seed", 7,
                    "--out", m_csv]) == 0
    lines = m_csv.read_text().splitlines()
    k, freq, _ = lines[5].split(",")
    lines[5] = f"{k},{freq},nan"
    m_csv.write_text("\n".join(lines) + "\n")
    rec_csv = tmp_path / "rec.csv"
    code = run_cli(["recover", "--measurements", m_csv, "--out", rec_csv])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "non-finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not rec_csv.exists()


def test_measure_header_only_waveform(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("time_s,gamma_b_hz\n")
    code = run_cli(["measure", "--in", empty, "--m", 10,
                    "--out", tmp_path / "m.csv"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "no samples" in err
    assert len(err.strip().splitlines()) == 1


def test_measure_rejects_non_finite_sample(tmp_path, pulse_csv, capsys):
    lines = pulse_csv.read_text().splitlines()
    t, _ = lines[30].split(",")
    lines[30] = f"{t},nan"
    pulse_csv.write_text("\n".join(lines) + "\n")
    m_csv = tmp_path / "m.csv"
    code = run_cli(["measure", "--in", pulse_csv, "--m", 60, "--no-noise",
                    "--out", m_csv])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "non-finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not m_csv.exists()


def test_measure_rejects_non_uniform_times(tmp_path, pulse_csv, capsys):
    # the spacing doubles halfway through the time column
    lines = pulse_csv.read_text().splitlines()
    for j in range(50, len(lines)):
        _, x = lines[j].split(",")
        lines[j] = f"{repr((2 * j - 49) * 50e-6)},{x}"
    pulse_csv.write_text("\n".join(lines) + "\n")
    code = run_cli(["measure", "--in", pulse_csv, "--m", 60, "--no-noise",
                    "--out", tmp_path / "m.csv"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "time column" in err
    assert len(err.strip().splitlines()) == 1


def test_roc_length_mismatch(tmp_path, pulse_csv, capsys):
    short = tmp_path / "short.csv"
    short.write_text("time_s,recovered_hz\n5e-05,0.0\n")
    code = run_cli(["roc", "--recovered", short, "--truth", pulse_csv,
                    "--out", tmp_path / "roc.csv"])
    assert code == 4


def _assert_numeric_error(code, capsys, *words):
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and all(w in err for w in words), err
    assert len(err.strip().splitlines()) == 1


def test_measure_subset_json_without_indices(tmp_path, pulse_csv, capsys):
    subset = tmp_path / "subset.json"
    subset.write_text(json.dumps({"n_grid": 100}))
    code = run_cli(["measure", "--in", pulse_csv, "--subset", subset,
                    "--out", tmp_path / "m.csv"])
    _assert_numeric_error(code, capsys, "indices")


@pytest.mark.parametrize("data", [
    {"n_grid": 100.9, "indices": [1, 5, 9]},
    {"n_grid": 100, "indices": [1.7, 5.2, 9.9]},
    {"n_grid": 100, "indices": [True, 5, 9]},
    {"n_grid": 100, "indices": ["1", "5", "9"]},
])
def test_measure_rejects_non_integer_subset_json(tmp_path, pulse_csv, capsys, data):
    subset = tmp_path / "subset.json"
    subset.write_text(json.dumps(data))
    out = tmp_path / "m.csv"
    code = run_cli(["measure", "--in", pulse_csv, "--subset", subset, "--out", out])
    _assert_numeric_error(code, capsys, "integer")
    assert not out.exists()


def test_recover_short_measurement_row(tmp_path, capsys):
    m_csv = tmp_path / "m.csv"
    m_csv.write_text("k,freq_hz,coef_hz\n1,100.0\n")
    code = run_cli(["recover", "--measurements", m_csv, "--out", tmp_path / "rec.csv"])
    _assert_numeric_error(code, capsys, "3 fields")


def test_measure_short_waveform_row(tmp_path, capsys):
    wf = tmp_path / "wf.csv"
    wf.write_text("time_s,gamma_b_hz\n5e-05\n")
    code = run_cli(["measure", "--in", wf, "--out", tmp_path / "m.csv"])
    _assert_numeric_error(code, capsys, "2 fields")


def test_recover_empty_measurement_file(tmp_path, capsys):
    empty = tmp_path / "m.csv"
    empty.write_text("")
    code = run_cli(["recover", "--measurements", empty, "--out", tmp_path / "rec.csv"])
    _assert_numeric_error(code, capsys, "unexpected header")


@pytest.mark.parametrize("flags", [["--n", 200], ["--dt", 25e-6], ["--dt", 5e-324]])
def test_recover_rejects_a_grid_the_file_contradicts(tmp_path, pulse_csv, capsys, flags):
    # the file reads freq_hz = k/(2 N dt) at N = 100, dt = 50 us; a grid of
    # another N dt gives other frequencies, and is named, not solved on (a
    # subnormal dt, whose k/(2 N dt) overflows, too)
    m_csv = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 40, "--out", m_csv]) == 0
    rec_csv = tmp_path / "rec.csv"
    code = run_cli(["recover", "--measurements", m_csv, *flags, "--out", rec_csv])
    _assert_numeric_error(code, capsys, str(m_csv), "--n", "--dt", "freq_hz")
    assert not rec_csv.exists()


def test_recover_accepts_the_grid_the_file_was_measured_on(tmp_path, capsys):
    wf, m_csv = tmp_path / "wf.csv", tmp_path / "m.csv"
    assert run_cli(["synth", "--n", 64, "--dt", 1e-5, "--pulses", "1e-4,500,1e-4",
                    "--out", wf]) == 0
    assert run_cli(["measure", "--in", wf, "--full", "--out", m_csv]) == 0
    assert run_cli(["recover", "--measurements", m_csv, "--n", 64, "--dt", 1e-5,
                    "--out", tmp_path / "rec.csv"]) == 0
    _assert_numeric_error(
        run_cli(["recover", "--measurements", m_csv, "--n", 64, "--out", tmp_path / "r.csv"]),
        capsys, "--dt 5e-05",
    )


def test_roc_blank_row_in_recovered(tmp_path, pulse_csv, capsys):
    recovered = tmp_path / "rec.csv"
    recovered.write_text("time_s,recovered_hz\n5e-05,0.0\n\n")
    code = run_cli(["roc", "--recovered", recovered, "--truth", pulse_csv,
                    "--out", tmp_path / "roc.csv"])
    _assert_numeric_error(code, capsys, "2 fields")


@pytest.mark.parametrize("kind", ["waveform", "measurement", "recovered"])
def test_csv_cell_that_does_not_parse_names_file_and_column(tmp_path, pulse_csv, capsys, kind):
    # waveform cells read as floats, measurement k as ints, recovered cells as floats
    m_csv, rec_csv = tmp_path / "m.csv", tmp_path / "rec.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 40, "--out", m_csv]) == 0
    assert run_cli(["recover", "--measurements", m_csv, "--out", rec_csv]) == 0
    path, column, cell, command = {
        "waveform": (pulse_csv, "gamma_b_hz", "abc", ["measure", "--in", pulse_csv]),
        "measurement": (m_csv, "k", "1.5", ["recover", "--measurements", m_csv]),
        "recovered": (rec_csv, "recovered_hz", "abc",
                      ["roc", "--recovered", rec_csv, "--truth", pulse_csv]),
    }[kind]
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[lines[0].split(",").index(column)] = cell
    path.write_text("\n".join([*lines[:3], ",".join(fields), *lines[4:]]) + "\n")
    capsys.readouterr()
    out = tmp_path / "out.csv"
    code = run_cli([*command, "--out", out])
    _assert_numeric_error(code, capsys, f"CSV {path}: column {column}: ", repr(cell))
    assert not out.exists()


def test_roc_refuses_a_recovery_on_another_time_grid(tmp_path, pulse_csv, capsys):
    # a 25 us recovery graded against a 50 us truth with the same N
    fast, m_csv, rec_csv = tmp_path / "fast.csv", tmp_path / "m.csv", tmp_path / "rec.csv"
    assert run_cli(["synth", "--dt", 25e-6, "--pulses", "1e-3,1000,200e-6", "--out", fast]) == 0
    assert run_cli(["measure", "--in", fast, "--m", 60, "--out", m_csv]) == 0
    assert run_cli(["recover", "--measurements", m_csv, "--dt", 25e-6, "--out", rec_csv]) == 0
    roc_csv = tmp_path / "roc.csv"
    code = run_cli(["roc", "--recovered", rec_csv, "--truth", pulse_csv, "--out", roc_csv])
    _assert_numeric_error(code, capsys, str(rec_csv), str(pulse_csv), "time_s", "j*dt")
    assert not roc_csv.exists()
    # on its own grid the same recovery is graded
    assert run_cli(["roc", "--recovered", rec_csv, "--truth", fast, "--out", roc_csv]) == 0


@pytest.mark.parametrize("args, words", [
    (["recover", "--measurements", "m.csv", "--lambda", "-inf"], "--lambda must be positive"),
    (["synth", "--dt", "-5e-05"], "dt must be positive and finite, got -5e-05"),
    (["measure", "--in", "WF", "--atoms", "-1e3"], "mean_atoms must be finite"),
    (["tune", "--count", 1, "--lambda-low", "-1e-3"], "lambda grid needs 0 < low"),
    (["synth", "--pulses", "-1e-3,1000,2e-4"], "pulse at t0=-0.001 s"),
    (["recover", "--measurements", "m.csv", "--lambda", "-.5"], "--lambda must be positive"),
    (["recover", "--measurements", "m.csv", "--lambda", "-NaN"], "--lambda must be positive"),
])
def test_negative_float_given_as_its_own_argument_is_a_value(tmp_path, pulse_csv, capsys,
                                                             args, words):
    # argparse alone reads only -1 and -0.5 as numbers: -inf, -5e-05 and the
    # like would be options, and exit 2 with the usage text
    args = [pulse_csv if a == "WF" else a for a in args]
    out = tmp_path / "out.csv"
    code = run_cli([*args, "--out", out])
    _assert_numeric_error(code, capsys, words)
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seed", -1], ["--full", "--seed", -1],
                                   ["--full", "--noise-seed", -1]])
def test_measure_negative_seed(tmp_path, pulse_csv, capsys, flags):
    code = run_cli(["measure", "--in", pulse_csv, *flags, "--out", tmp_path / "m.csv"])
    _assert_numeric_error(code, capsys, f"{flags[-2]} must be >= 0, got -1")


@pytest.mark.parametrize("args, bad", [
    (["measure", "--m", 10, "--seed", -1], -1),
    (["measure", "--m", 10, "--noise-seed", -1], -1),
    (["tune", "--count", 1, "--seed", -3], -3),
])
def test_negative_seeds_are_named(tmp_path, pulse_csv, capsys, args, bad):
    command = [*args[:1], "--in", pulse_csv, *args[1:]] if args[0] == "measure" else args
    code = run_cli([*command, "--out", tmp_path / "out.csv"])
    _assert_numeric_error(code, capsys, f"{args[-2]} must be >= 0, got {bad}")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("dt", [5e-324, 1e-300, 1e-12])
def test_template_longer_than_grid_names_dt(tmp_path, pulse_csv, capsys, dt):
    # synth keeps accepting these grids; the default 200 us template spans
    # more samples than they hold, and roc and sweep say so before allocating
    truth = tmp_path / "tiny.csv"
    assert run_cli(["synth", "--dt", dt, "--out", truth]) == 0
    base = tmp_path / "base.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    capsys.readouterr()
    for command in (["roc", "--recovered", truth], ["sweep", "--base", base, "--m-list", 10]):
        code = run_cli([*command, "--truth", truth, "--out", tmp_path / "out.csv"])
        _assert_numeric_error(code, capsys, "template does not fit the grid",
                              "pulse_duration 0.0002 s", f"dt {dt} s", "N - 1 = 99")


def test_bound_prints_reference_values(capsys):
    assert run_cli(["bound", "--sparsity", 4, "--n", 100]) == 0
    assert capsys.readouterr().out.strip() == "34"
    assert run_cli(["bound", "--sparsity", 8, "--n", 100]) == 0
    assert capsys.readouterr().out.strip() == "57"
    # a bound beyond the N - 1 coefficients adds one plain line, not a warning
    assert run_cli(["bound", "--sparsity", 100, "--n", 100]) == 0
    captured = capsys.readouterr()
    assert captured.out == "200\n"
    assert captured.err == "note: bound 200 exceeds the 99 coefficients\n"


def test_bound_rejects_grid_without_coefficients(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "exceeds the 0 available" warning
        code = run_cli(["bound", "--sparsity", 1, "--n", 1])
    _assert_numeric_error(code, capsys, "--n must be >= 2, got 1")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args, message", [
    (["measure", "--in", "tiny.csv", "--m", 10],
     "T = N*dt = 4.94e-322 s: the readout 1/(2 pi T) overflows"),
    (["sweep", "--base", "full.csv", "--m-list", ""],
     "--m-list must be comma-separated integers, got ''"),
    (["sweep", "--base", "full.csv", "--m-list", "10,,20"],
     "--m-list must be comma-separated integers, got '10,,20'"),
    (["recover", "--measurements", "full400.csv"],
     "full400.csv holds index 399 > N - 1 for N = 100 (--n)"),
    (["sweep", "--base", "full400.csv", "--m-list", 10],
     "full400.csv holds index 399 > N - 1 for N = 100 (--n)"),
    (["recover", "--measurements", "negative.csv"],
     "negative.csv holds index -2: indices must lie in 1..N-1"),
    (["sweep", "--base", "negative.csv", "--m-list", 10],
     "negative.csv holds index -2: indices must lie in 1..N-1"),
    (["measure", "--in", "wf.csv", "--subset", "bad.json"],
     "subset JSON bad.json: Expecting property name enclosed in double quotes"),
    (["roc", "--recovered", "bin.csv", "--truth", "wf.csv"],
     "CSV bin.csv: 'utf-8' codec can't decode byte 0xff"),
    (["measure", "--in", "wf.csv", "--subset", "zero.json"],
     "subset JSON zero.json: indices must lie in 1..N-1 for N = 100, got 0"),
    (["measure", "--in", "wf.csv", "--subset", "n50.json"],
     "subset JSON n50.json is for N=50, --in wf.csv has N=100"),
    (["measure", "--in", "wf.csv", "--subset", "huge.json"],
     "subset JSON huge.json: indices must lie in 1..N-1 for N = 100, got 18446744073709551616"),
    (["measure", "--in", "wf.csv", "--subset", "neg-huge.json"],
     "subset JSON neg-huge.json: indices must lie in 1..N-1 for N = 100, "
     "got -1267650600228229401496703205376"),
    (["measure", "--in", "wf.csv", "--subset", "huge-n.json"],
     "subset JSON huge-n.json: Python int too large to convert to C long"),
])
def test_bad_inputs_are_named(tmp_path, pulse_csv, capsys, monkeypatch, args, message):
    # a 5e-324 s grid (which synth accepts), a malformed --m-list, a 399-row
    # base read without --n and a negative k (whose freq_hz k/(2 N dt) is
    # consistent), malformed subset JSON, a subset index out of range (also
    # beyond int64, either sign), a subset for another N, an N beyond int64
    # and a CSV that is not UTF-8 each exit 4 with one line naming them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negative.csv").write_text("k,freq_hz,coef_hz\r\n-2,-200.0,1.0\r\n")
    (tmp_path / "bad.json").write_text("{'n_grid': 100}")
    (tmp_path / "zero.json").write_text('{"n_grid": 100, "indices": [0]}')
    (tmp_path / "n50.json").write_text('{"n_grid": 50, "indices": [3]}')
    (tmp_path / "huge.json").write_text(json.dumps({"n_grid": 100, "indices": [1, 2, 2**64]}))
    (tmp_path / "neg-huge.json").write_text(json.dumps({"n_grid": 100, "indices": [-(2**100)]}))
    (tmp_path / "huge-n.json").write_text(json.dumps({"n_grid": 2**70, "indices": [2**65]}))
    (tmp_path / "bin.csv").write_bytes(b"time_s,recovered_hz\r\n\xff\xfe\r\n")
    for setup in (
        ["synth", "--dt", 5e-324, "--out", "tiny.csv"],
        ["measure", "--in", pulse_csv, "--full", "--out", "full.csv"],
        ["synth", "--n", 400, "--dt", 12.5e-6, "--out", "wf400.csv"],
        ["measure", "--in", "wf400.csv", "--full", "--no-noise", "--out", "full400.csv"],
    ):
        assert run_cli(setup) == 0
    capsys.readouterr()
    truth = ["--truth", pulse_csv] if args[0] == "sweep" else []
    code = run_cli([*args, *truth, "--out", "out.csv"])
    _assert_numeric_error(code, capsys, message)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["synth", "--n", 1], "--n must be >= 2, got 1"),
    (["recover", "--measurements", "full.csv", "--n", 1], "--n must be >= 2, got 1"),
    (["tune", "--n", 1], "--n must be >= 2, got 1"),
    (["bound", "--sparsity", 1, "--n", 1], "--n must be >= 2, got 1"),
    (["tune", "--count", 0], "--count must be >= 1, got 0"),
    (["measure", "--in", "wf.csv", "--m", 0], "--m must lie in 1..99 for N = 100 (--in wf.csv), got 0"),
    (["tune", "--m", 100], "--m must lie in 1..99 for N = 100 (--n), got 100"),
    (["measure", "--in", "wf.csv", "--m", 10, "--seed", -1], "--seed must be >= 0, got -1"),
    (["tune", "--noise-seed", -1], "--noise-seed must be >= 0, got -1"),
    (["sweep", "--base", "full.csv", "--truth", "wf.csv", "--m-list", 10, "--subsets", 0],
     "--subsets must be >= 1, got 0"),
    (["tune", "--lambda-count", 1], "--lambda-count must be >= 2, got 1"),
    (["tune", "--lambda-low", 0], "--lambda-low 0.0 and --lambda-high 10.0: lambda grid needs"),
    (["synth", "--dt", 0], "--dt must be positive and finite, got 0.0"),
    (["sweep", "--base", "full.csv", "--truth", "wf.csv", "--m-list", 0],
     "--m-list values must lie in 1..99 (--n), got '0'"),
    (["bound", "--sparsity", 0], "--sparsity must lie in 1..100 (--n), got 0"),
    (["measure", "--in", "wf.csv", "--m", 10, "--atoms", 1e-300],
     "--atoms 1e-300: mean_atoms must be finite and in [1, 9.223e+18], got 1e-300"),
    (["tune", "--count", 1, "--atoms", 1e-300], "--atoms 1e-300: mean_atoms must be finite"),
    (["measure", "--in", "wf.csv", "--m", 10, "--drift-std", "nan"],
     "--drift-std nan: bias_drift_std_hz must be non-negative and finite"),
    (["tune", "--count", 1, "--drift-std", "nan"], "--drift-std nan: bias_drift_std_hz must be"),
    (["measure", "--in", "wf.csv", "--m", 99, "--drift-std", 1e308],
     "--drift-std 1e+308: bias drift std too large: drift*2T overflows at T = 0.005 s"),
    (["tune", "--count", 1, "--drift-std", 1e308], "--drift-std 1e+308: bias drift std too large"),
    (["measure", "--in", "wf.csv", "--m", 10, "--drift-std", "-0.0"],
     "--drift-std -0.0: bias_drift_std_hz must be non-negative and finite, and not -0.0"),
    (["tune", "--count", 1, "--drift-std", "-0.0"], "--drift-std -0.0: bias_drift_std_hz must be"),
    (["synth", "--dt", 1e308],
     "--n 100 --dt 1e+308: phase span 2*pi*n_grid*dt must be finite, got 100*1e+308"),
    (["recover", "--measurements", "full.csv", "--dt", 1e308],
     "--n 100 --dt 1e+308: phase span 2*pi*n_grid*dt must be finite, got 100*1e+308"),
    (["tune", "--dt", 1e308],
     "--n 100 --dt 1e+308: phase span 2*pi*n_grid*dt must be finite, got 100*1e+308"),
    (["synth", "--n", 100, "--dt", 1e306],
     "--n 100 --dt 1e+306: phase span 2*pi*n_grid*dt must be finite, got 100*1e+306"),
])
def test_flag_range_errors_name_the_flag(tmp_path, pulse_csv, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", "full.csv"]) == 0
    capsys.readouterr()
    out = [] if args[0] == "bound" else ["--out", "out.csv"]
    _assert_numeric_error(run_cli([*args, *out]), capsys, message)
    assert not (tmp_path / "out.csv").exists()


# a minimal valid argv of each command, with the files it names
_BASE = {
    "synth": ["--pulses", "1.025e-3,1000,200e-6"],
    "measure": ["--in", "wf.csv", "--m", 10],
    "recover": ["--measurements", "m.csv"],
    "roc": ["--recovered", "rec.csv", "--truth", "wf.csv"],
    "tune": ["--count", 1, "--lambda-count", 3],
    "sweep": ["--base", "full.csv", "--truth", "wf.csv", "--m-list", "10,60", "--subsets", 2],
    "bound": ["--sparsity", 4],
}


def _flags_of(command):
    return re.findall(r"--[\w-]+", cli._COMMANDS[command][1])


# the dests and defaults each command parses _BASE to; a manifest dumps them
# all, so each is part of the artefact bytes
_PARSED_DEFAULTS = {
    "synth": {"command": "synth", "dt": 5e-05, "n": 100, "out": "waveform.csv",
              "pulses": [{"start_time_s": 1.025e-3, "amplitude_hz": 1000.0, "duration_s": 200e-6}]},
    "measure": {"atoms": 1000.0, "command": "measure", "drift_std": 200.0, "full": False,
                "infile": "wf.csv", "m": 10, "no_noise": False, "noise_seed": 0,
                "out": "measurements.csv", "seed": 0, "subset": None},
    "recover": {"command": "recover", "dt": 5e-05, "lam": 1.04, "measurements": "m.csv",
                "n": 100, "out": "recovered.csv"},
    "roc": {"command": "roc", "out": "roc.csv", "recovered": "rec.csv", "truth": "wf.csv"},
    "tune": {"atoms": 1000.0, "command": "tune", "count": 1, "drift_std": 200.0, "dt": 5e-05,
             "lambda_count": 3, "lambda_high": 10.0, "lambda_low": 0.1, "m": 60, "n": 100,
             "no_noise": False, "noise_seed": 0, "out": "tune.csv", "seed": 0},
    "sweep": {"base": "full.csv", "command": "sweep", "lam": 1.04, "m_list": "10,60", "n": 100,
              "out": "sweep.csv", "seed": 0, "subsets": 2, "truth": "wf.csv"},
    "bound": {"command": "bound", "n": 100, "sparsity": 4},
}


@pytest.mark.parametrize("command", list(_PARSED_DEFAULTS))
def test_parsed_flags_keep_their_dests_and_defaults(command):
    parsed = vars(cli.build_parser().parse_args([command, *map(str, _BASE[command])]))
    expected = _PARSED_DEFAULTS[command]
    assert parsed == expected
    # 100 and 100.0 are equal, but a manifest writes them differently
    assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in expected.items()}


def _parsed(parse, argv, capsys):
    """What a parse of argv gives, its flags (sorted, and by repr, so that a
    nan equals itself) or its exit code, and what it printed."""
    try:
        result = repr(sorted(vars(parse(argv)).items()))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def _assert_one_route(argv, capsys):
    assert _parsed(cli.parse_args, argv, capsys) == _parsed(cli.build_parser().parse_args, argv,
                                                            capsys), argv


# every CLI argv of the session, the failing ones too, and those the full
# parser must take: no argv, help first, help after a command, and an
# argument that the command's own parser leaves unrecognised
_ROUTE_ARGVS = [*(pytest.param(argv, id=name)
                  for name, argv in [*cli_session.CLI_RUNS, *cli_session.MORE_RUNS]),
                pytest.param([], id="no-argv"), pytest.param(["-h"], id="h"),
                pytest.param(["measure", "-h"], id="measure-h"),
                pytest.param(["measure", "--in", "wf.csv", "--m", "5", "--bogus"], id="bogus")]


@pytest.mark.parametrize("argv", _ROUTE_ARGVS)
def test_a_command_parses_on_its_own_parser_as_on_the_full_one(capsys, argv):
    _assert_one_route(argv, capsys)


def _range_cases():
    """Every flag with a file-free range on every command that takes it, with
    values just outside that range and the exact line each must print."""
    for command in cli._COMMANDS:
        for flag in _flags_of(command):
            rule = cli._FLAGS[flag][0]
            if rule == cli._POSITIVE:
                for value in ("0", "-0.0", "inf", "nan"):
                    message = f"{flag} must be positive and finite, got {float(value)!r}"
                    yield pytest.param(command, flag, value, message, id=f"{command}{flag}={value}")
            elif rule is not None:
                message = f"{flag} must be >= {rule}, got {rule - 1}"
                yield pytest.param(command, flag, rule - 1, message, id=f"{command}{flag}")


@pytest.mark.parametrize("command, flag, value, message", list(_range_cases()))
def test_every_ruled_flag_prints_its_range(tmp_path, capsys, monkeypatch, valid_inputs,
                                           command, flag, value, message):
    monkeypatch.chdir(tmp_path)
    for name, text in valid_inputs.items():
        (tmp_path / name).write_text(text)
    out = [] if command == "bound" else ["--out", "out.csv"]
    code = run_cli([command, *_BASE[command], flag, value, *out])
    assert code == 4
    assert capsys.readouterr().err == f"error: numeric: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_sweep_small(tmp_path, pulse_csv):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--base", base, "--truth", pulse_csv, "--n", 100,
                    "--m-list", "20,60", "--subsets", 3, "--seed", 3,
                    "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,mean_auc,std_auc"
    assert len(lines) == 3


def test_sweep_rejects_zero_subsets(tmp_path, pulse_csv, capsys):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--base", base, "--truth", pulse_csv, "--m-list", "20",
                    "--subsets", 0, "--out", out])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric") and "--subsets must be >= 1, got 0" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sweep_rejects_bad_lambda(tmp_path, pulse_csv, capsys):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    code = run_cli(["sweep", "--base", base, "--truth", pulse_csv, "--m-list", "20",
                    "--lambda", -1, "--out", out])
    _assert_numeric_error(code, capsys, "--lambda must be positive and finite, got -1.0")
    assert not out.exists()


def test_sweep_rejects_degenerate_truth(tmp_path, pulse_csv, capsys):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    zero = tmp_path / "zero.csv"
    assert run_cli(["synth", "--out", zero]) == 0
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    code = run_cli(["sweep", "--base", base, "--truth", zero, "--m-list", "20,60",
                    "--subsets", 3, "--out", out])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric: degenerate truth")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("pulses", ["2e-3,900,1e-4", "2e-3,400,2e-4"])
def test_roc_says_why_a_truth_has_no_positives(tmp_path, capsys, pulses):
    # a 100 us pulse samples to about zero at 50 us steps, and the matched
    # output of a 400 Hz one reaches 0.4 of the template energy: no positives
    wf, full, rec = tmp_path / "wf.csv", tmp_path / "full.csv", tmp_path / "rec.csv"
    assert run_cli(["synth", "--pulses", pulses, "--out", wf]) == 0
    assert run_cli(["measure", "--in", wf, "--full", "--no-noise", "--out", full]) == 0
    assert run_cli(["recover", "--measurements", full, "--out", rec]) == 0
    capsys.readouterr()
    code = run_cli(["roc", "--recovered", rec, "--truth", wf, "--out", tmp_path / "roc.csv"])
    _assert_numeric_error(code, capsys, "error: numeric: degenerate truth: no positives",
                          "reaches half the energy of the template (1000 Hz, 200 us by default)")
    assert not (tmp_path / "roc.csv").exists()


def test_sweep_requires_full_base(tmp_path, pulse_csv):
    partial = tmp_path / "partial.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--out", partial]) == 0
    code = run_cli(["sweep", "--base", partial, "--truth", pulse_csv,
                    "--m-list", "20", "--out", tmp_path / "f.csv"])
    assert code == 4


def test_sweep_rejects_truth_of_other_grid_before_solving(tmp_path, pulse_csv, capsys, monkeypatch):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    truth = tmp_path / "wf200.csv"
    assert run_cli(["synth", "--n", 200, "--dt", 25e-6, "--out", truth]) == 0
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("sweep solved before checking --truth")

    monkeypatch.setattr(cli.experiments, "sweep_sample_count", no_solve)
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--base", base, "--truth", truth, "--m-list", "20",
                    "--out", out])
    _assert_numeric_error(code, capsys, f"--truth {truth} holds N = 200, not --n 100")
    assert not out.exists()


def test_sweep_rejects_truth_of_other_dt(tmp_path, pulse_csv, capsys):
    # the base reads freq_hz = k/(2 N dt) at dt = 50 us; a truth on the same N
    # at dt = 25 us is another waveform, and its dt is named, not swept
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    truth = tmp_path / "wf25.csv"
    assert run_cli(["synth", "--dt", 25e-6, "--pulses", "5e-4,1000,1e-4", "--out", truth]) == 0
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep", "--base", base, "--truth", truth, "--m-list", "20",
                    "--subsets", 3, "--out", out])
    _assert_numeric_error(code, capsys, str(base), "freq_hz", f"--truth {truth} dt 2.5e-05")
    assert not out.exists()


def test_tune_tiny(tmp_path, capsys):
    out = tmp_path / "tune.csv"
    code = run_cli(["tune", "--count", 2, "--lambda-low", 0.5, "--lambda-high", 2.0,
                    "--lambda-count", 3, "--out", out])
    assert code == 0
    assert out.read_text().startswith("lambda_hz,mean_l1_error\n")
    assert "best_lambda_hz" in capsys.readouterr().out


def test_tune_no_noise_is_noiseless(tmp_path):
    def tune(name, *flags):
        out = tmp_path / name
        assert run_cli(["tune", "--count", 2, "--lambda-count", 5, *flags,
                        "--out", out]) == 0
        return out.read_bytes()

    noisy, noiseless = tune("noisy.csv"), tune("noiseless.csv", "--no-noise")
    assert noisy != noiseless
    # the noise flags reach the noiseless run through its manifest only
    assert tune("noiseless_drift.csv", "--no-noise", "--drift-std", 900) == noiseless


@pytest.mark.parametrize("flags", [["--lambda-low", -1], ["--lambda-high", "inf"]])
def test_tune_rejects_bad_lambda_range(tmp_path, capsys, flags):
    out = tmp_path / "tune.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second line
        code = run_cli(["tune", "--count", 1, *flags, "--out", out])
    _assert_numeric_error(code, capsys, "0 < low < high < inf")
    assert not out.exists()


def test_tune_lambda_count_error_names_the_lambda_count(tmp_path, capsys):
    out = tmp_path / "tune.csv"
    assert run_cli(["tune", "--count", 0, "--out", out]) == 4
    count_line = capsys.readouterr().err
    assert run_cli(["tune", "--count", 1, "--lambda-count", 1, "--out", out]) == 4
    lambda_line = capsys.readouterr().err
    assert count_line == "error: numeric: --count must be >= 1, got 0\n"
    assert lambda_line == "error: numeric: --lambda-count must be >= 2, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, duration", [
    (["--n", 3, "--m", 2], "T = N*dt = 0.00015 s (--n 3, --dt 5e-05)"),
    (["--dt", 5e-324], "T = N*dt = 4.94e-322 s (--n 100, --dt 5e-324)"),
])
def test_tune_rejects_a_grid_shorter_than_the_training_pulse(tmp_path, capsys, flags,
                                                             duration):
    # a training pulse cannot be placed on a grid shorter than it
    out = tmp_path / "tune.csv"
    code = run_cli(["tune", "--count", 1, *flags, "--out", out])
    _assert_numeric_error(code, capsys, duration, "shorter than the 0.0002 s training pulse")
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("", "need between 1 and 99 indices"),
    ("3,300.0,1.0\n1,100.0,2.0\n3,300.0,1.5\n", "got 3 after 3"),
])
def test_recover_names_the_measurement_file(tmp_path, capsys, rows, message):
    m_csv = tmp_path / "m.csv"
    m_csv.write_text("k,freq_hz,coef_hz\n" + rows)
    rec_csv = tmp_path / "rec.csv"
    code = run_cli(["recover", "--measurements", m_csv, "--out", rec_csv])
    _assert_numeric_error(code, capsys, str(m_csv), message)
    assert not rec_csv.exists()


def test_recover_rejects_overflowing_measurement(tmp_path, capsys):
    # 1e308 is finite, but its square is not: the solve would end in NaN
    m_csv = tmp_path / "m.csv"
    m_csv.write_text("k,freq_hz,coef_hz\n1,100.0,1e308\n2,200.0,0.0\n")
    rec_csv = tmp_path / "rec.csv"
    code = run_cli(["recover", "--measurements", m_csv, "--out", rec_csv])
    _assert_numeric_error(code, capsys, "1e100")
    assert not rec_csv.exists()


def test_measure_rejects_subset_index_beyond_int64(tmp_path, pulse_csv, capsys):
    subset = tmp_path / "subset.json"
    subset.write_text(json.dumps({"n_grid": 100, "indices": [1, 2**64]}))
    out = tmp_path / "m.csv"
    code = run_cli(["measure", "--in", pulse_csv, "--subset", subset, "--out", out])
    _assert_numeric_error(code, capsys)
    assert not out.exists()


def test_measure_rejects_oversized_csv_field(tmp_path, capsys):
    wf = tmp_path / "wf.csv"
    wf.write_text("time_s,gamma_b_hz\n5e-05," + "1" * 200_000 + "\n")
    code = run_cli(["measure", "--in", wf, "--full", "--out", tmp_path / "m.csv"])
    _assert_numeric_error(code, capsys, f"CSV {wf}: field larger than field limit")


@pytest.mark.parametrize("command", ["synth", "measure", "recover", "roc", "bound"])
def test_main_runs_the_command_bound_when_it_is_called(monkeypatch, command):
    # the parser is built once per process, so a cmd_* replaced after the
    # build (a wrapper, say) must still be the function main runs
    required = {"measure": ["--in", "x"], "recover": ["--measurements", "x"],
                "roc": ["--recovered", "x", "--truth", "x"], "bound": ["--sparsity", 3]}
    argv = [command, *required.get(command, [])]
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args) or [])
    assert run_cli(argv) == 0
    assert [args.command for args in calls] == [command]


def test_a_manifest_is_written_only_beside_returned_outputs(tmp_path, capsys, monkeypatch):
    # main writes the manifest once the command has returned what it wrote:
    # bound returns nothing, and a command that fails after parsing (roc on
    # a truth with no positives) returns nothing either
    monkeypatch.chdir(tmp_path)
    assert run_cli(["bound", "--sparsity", 4]) == 0
    assert list(tmp_path.iterdir()) == []
    for args in (["synth", "--pulses", "2e-3,900,1e-4", "--out", "wf.csv"],
                 ["measure", "--in", "wf.csv", "--full", "--no-noise", "--out", "full.csv"],
                 ["recover", "--measurements", "full.csv", "--out", "rec.csv"]):
        assert run_cli(args) == 0
    made = sorted(path.name for path in tmp_path.iterdir())
    assert run_cli(["roc", "--recovered", "rec.csv", "--truth", "wf.csv", "--out", "roc.csv"]) == 4
    assert sorted(path.name for path in tmp_path.iterdir()) == made
    assert "degenerate truth" in capsys.readouterr().err


def test_help_lists_subcommands():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["--help"])
    assert excinfo.value.code == 0


def test_cli_rerun_byte_identical_subprocess(tmp_path, run_sparsemag):
    # same flags and seeds twice in separate processes -> identical bytes
    def run(out):
        run_sparsemag(
            ["synth", "--n", "100", "--dt", "50e-6",
             "--pulses", "1.025e-3,1000,200e-6", "--out", str(out)],
            cwd=tmp_path,
        )
        m = out.with_name(out.stem + "_m.csv")
        run_sparsemag(
            ["measure", "--in", str(out), "--m", "60", "--seed", "7",
             "--out", str(m)],
            cwd=tmp_path,
        )
        return out.read_bytes(), m.read_bytes()

    first = run(tmp_path / "a.csv")
    second = run(tmp_path / "b.csv")
    assert first == second


def test_cli_rerun_with_shorter_outputs_matches_fresh_directory(tmp_path, monkeypatch):
    # artefacts are rewritten in place: a rerun into the same paths with
    # shorter outputs must leave no tail of the longer ones
    long_steps = [
        ["synth", "--n", 300, "--dt", 1.6666666666666667e-05,
         "--pulses", "1.025e-3,1000.123456789,200e-6;3.3e-3,-777.7777777,1.23456789e-4",
         "--out", "wf.csv"],
        ["measure", "--in", "wf.csv", "--m", 250, "--seed", 123456789, "--out", "m.csv"],
        ["recover", "--measurements", "m.csv", "--n", 300, "--dt", 1.6666666666666667e-05,
         "--lambda", 1.2345678912345, "--out", "rec.csv"],
        ["roc", "--recovered", "rec.csv", "--truth", "wf.csv", "--out", "roc.csv"],
    ]
    short_steps = [
        ["synth", "--pulses", "1.025e-3,1000,200e-6", "--out", "wf.csv"],
        ["measure", "--in", "wf.csv", "--m", 60, "--seed", 7, "--out", "m.csv"],
        ["recover", "--measurements", "m.csv", "--out", "rec.csv"],
        ["roc", "--recovered", "rec.csv", "--truth", "wf.csv", "--out", "roc.csv"],
    ]
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    rerun.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(rerun)
    for args in long_steps:
        assert run_cli(args) == 0
    long_sizes = {path.name: path.stat().st_size for path in rerun.iterdir()}
    for args in short_steps:
        assert run_cli(args) == 0
    monkeypatch.chdir(fresh)
    for args in short_steps:
        assert run_cli(args) == 0

    names = sorted(path.name for path in fresh.iterdir())
    assert names == sorted(long_sizes) and len(names) == 10
    # the roc manifest holds the same flags both times; every other file shrinks
    shrunk = [n for n in names if long_sizes[n] > (fresh / n).stat().st_size]
    assert sorted(shrunk) == [n for n in names if n != "roc.csv.manifest.json"]
    for name in names:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


def test_cli_session_in_one_process_matches_fresh_processes(
    tmp_path, monkeypatch, run_sparsemag
):
    # one process reuses one parser for every call: the files and manifests
    # must match fresh processes, with no value carried over between calls,
    # and failed calls between the steps must change nothing
    steps = [
        ["synth", "--pulses", "1.025e-3,1000,200e-6", "--out", "wf.csv"],
        ["synth", "--out", "zero.csv"],
        ["measure", "--in", "wf.csv", "--m", "60", "--seed", "7", "--out", "m60.csv"],
        ["measure", "--in", "wf.csv", "--full", "--out", "full.csv"],
        ["measure", "--in", "wf.csv", "--subset", "subset.json", "--out", "sub.csv"],
        ["recover", "--measurements", "m60.csv", "--lambda", "2.0", "--out", "rec2.csv"],
        ["recover", "--measurements", "m60.csv", "--out", "rec.csv"],
        ["roc", "--recovered", "rec.csv", "--truth", "wf.csv", "--out", "roc.csv"],
    ]
    failing = {
        1: (["synth", "--pulses", "1e-3,1000", "--out", "bad.csv"], 2),
        4: (["measure", "--in", "wf.csv", "--m", "200", "--out", "bad.csv"], 4),
        6: (["recover", "--measurements", "m60.csv", "--lambda", "x", "--out", "bad.csv"], 2),
    }
    session, fresh = tmp_path / "session", tmp_path / "fresh"
    for directory in (session, fresh):
        directory.mkdir()
        (directory / "subset.json").write_text('{"n_grid": 100, "indices": [2, 3, 50]}')

    monkeypatch.chdir(session)
    for i, args in enumerate(steps):
        if i in failing:
            bad_args, expected = failing[i]
            assert _exit_code(bad_args) == expected
        assert run_cli(args) == 0
    for args in steps:
        run_sparsemag(args, cwd=fresh)

    names = sorted(path.name for path in session.iterdir())
    assert names == sorted(path.name for path in fresh.iterdir())
    assert "bad.csv" not in names
    assert len([n for n in names if n.endswith(".manifest.json")]) == len(steps)
    for name in names:
        assert (session / name).read_bytes() == (fresh / name).read_bytes(), name
    zero = json.loads((session / "zero.csv.manifest.json").read_text())
    assert zero["parameters"]["pulses"] == []
    rec = json.loads((session / "rec.csv.manifest.json").read_text())
    assert rec["parameters"]["lam"] == 1.04


def test_cli_session_matches_the_checked_in_digests(tmp_path):
    # every artefact, manifest, sidecar, stdout and stderr byte and exit code
    # of a fixed fresh-process session, against tests/data/cli_session.json;
    # on a host with another BLAS or machine the solver steps are left out,
    # since their solves may end a few ulps away (cli_session.py)
    recorded = json.loads(cli_session.DIGESTS.read_text())
    skipped = cli_session.left_out(recorded["host"])
    moved = cli_session.moved(recorded["entries"], cli_session.run_session(tmp_path), skipped)
    assert not moved, (f"moved: {moved}; if on purpose, rewrite the digests with "
                       "`python tests/cli_session.py --write`")


def _exit_code(args):
    """cli.main's return code, or the code argparse exits with."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def _assert_finite_csvs(directory):
    for path in directory.glob("*.csv"):
        for row in path.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")), (path, row)


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1e-3, 1e-4, 2e-4, 1e-3, 4.99e-3, 1000.0, 1e308]),
)
_pulse = st.one_of(
    st.just("1.025e-3,1000,200e-6"),
    st.tuples(_numbers, _numbers, _numbers).map(lambda f: ",".join(map(repr, f))),
)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pulses=st.lists(_pulse, max_size=2).map(";".join),
    m=st.integers(-2, 101),
    atoms=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(1000.0)),
    drift=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(200.0)),
    subsets=st.integers(-2, 3),
)
def test_cli_fuzz_exit_codes(tmp_path_factory, pulses, m, atoms, drift, subsets):
    # every input either succeeds with finite CSVs or exits 3 or 4; no
    # exception escapes cli.main
    d = tmp_path_factory.mktemp("fuzz")
    wf, full = d / "wf.csv", d / "full.csv"
    noise = ["--atoms", repr(atoms), "--drift-std", repr(drift)]
    steps = [
        ["synth", "--pulses", pulses, "--out", wf],
        ["measure", "--in", wf, "--m", m, *noise, "--out", d / "m.csv"],
        ["measure", "--in", wf, "--full", *noise, "--out", full],
        ["sweep", "--base", full, "--truth", wf, "--m-list", "10,60",
         "--subsets", subsets, "--out", d / "sweep.csv"],
    ]
    for args in steps:
        code = _exit_code(args)
        assert code in (0, 3, 4), (args, code)  # every drawn value parses: no usage error
        if code == 0:
            _assert_finite_csvs(d)


def _finite(value):
    """True when every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The text of one consistent set of CLI input files, made by the CLI."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "subset.json").write_text('{"n_grid": 100, "indices": [2, 3, 50, 71]}')
    for args in (
        ["synth", "--pulses", "1.025e-3,1000,200e-6", "--out", d / "wf.csv"],
        ["measure", "--in", d / "wf.csv", "--m", 60, "--out", d / "m.csv"],
        ["measure", "--in", d / "wf.csv", "--full", "--out", d / "full.csv"],
        ["recover", "--measurements", d / "m.csv", "--out", d / "rec.csv"],
    ):
        assert run_cli(args) == 0
    names = ("wf.csv", "m.csv", "full.csv", "rec.csv", "subset.json")
    return {name: (d / name).read_text() for name in names}


def _edit_csv(text, edits):
    """Apply line edits to a CSV text; indices wrap around the line count."""
    lines = text.splitlines()
    for kind, i, j, cell in edits:
        i %= len(lines) + 1
        row = lines[i].split(",") if i < len(lines) else []
        if kind == "truncate_row" and row:
            lines[i] = ",".join(row[:-1])
        elif kind == "extra_column" and row:
            lines[i] = ",".join([*row, cell])
        elif kind == "cell" and row:
            row[j % len(row)] = cell
            lines[i] = ",".join(row)
        elif kind == "drop_row" and row:
            del lines[i]
        elif kind == "cut":
            del lines[i:]
        elif kind == "blank":
            lines.insert(i, "")
    return "".join(line + "\n" for line in lines)


_cells = st.sampled_from([
    "", "x", "nan", "inf", "-inf", "1e999", "1e308", "-1e308", "0", "-1", "1.5",
    "100", "True", "18446744073709551616",
])
_csv_edits = st.lists(
    st.tuples(
        st.sampled_from(["truncate_row", "extra_column", "cell", "drop_row", "cut", "blank"]),
        st.integers(0, 120), st.integers(0, 3), _cells,
    ),
    max_size=2,
)
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**65), st.floats(), st.text(max_size=3)
)
_json_value = st.one_of(_json_scalar, st.lists(_json_scalar, max_size=4))
_subset_json = st.one_of(
    st.fixed_dictionaries({
        "n_grid": st.one_of(st.sampled_from([2, 99, 100, 101]), _json_value),
        "indices": st.one_of(
            st.lists(st.integers(-1, 101) | st.sampled_from([2**63, -(2**63) - 1]), max_size=5),
            _json_value,
        ),
    }),
    st.dictionaries(st.sampled_from(["n_grid", "indices", "m"]), _json_value, max_size=3),
    _json_value,
).map(json.dumps) | st.sampled_from(["", "{", "[1, 2"])


@settings(max_examples=16, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["recover", "sweep"]),
    lam=st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e308, math.inf, -math.inf, math.nan]),
)
def test_cli_fuzz_lambda(tmp_path_factory, capsys, valid_inputs, command, lam):
    # every IEEE edge of --lambda either solves with finite outputs or exits 4
    # with one line that names the flag, given as --lambda=VALUE or as its
    # own argument (a "-inf" there is a value, not an option)
    d = tmp_path_factory.mktemp("lambda")
    for name, text in valid_inputs.items():
        (d / name).write_text(text)
    inputs = {
        "recover": ["--measurements", d / "m.csv"],
        "sweep": ["--base", d / "full.csv", "--truth", d / "wf.csv", "--m-list", "10,60",
                  "--subsets", 1],
    }
    for flag in ([f"--lambda={lam!r}"], ["--lambda", repr(lam)]):
        out = d / f"out{len(flag)}"
        out.mkdir()
        code = _exit_code([command, *inputs[command], *flag, "--out", out / "out.csv"])
        err = capsys.readouterr().err
        if code == 0:
            _assert_finite_csvs(out)
            for path in out.glob("*.json"):
                assert _finite(json.loads(path.read_text())), path
        else:
            assert code == 4, (command, flag, err)
            assert err.startswith("error: numeric: --lambda must be positive and finite"), err
            assert len(err.strip().splitlines()) == 1


# --m-list tokens: empty, signed, float, hex and digit-separator text,
# padding, non-ASCII digits (int() reads them), a stray ";", valid counts
# and ints far beyond int64
_m_list_tokens = st.one_of(
    st.sampled_from(["", "+10", "-10", "1e3", "0x10", "10_0", " 20 ", "\t60", "\u0663\u0660",
                     "\uff11\uff10", ";", "10;20"]),
    st.integers(1, 99).map(str),
    st.integers(-(2**70), 2**70).map(str),
)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(_m_list_tokens, min_size=1, max_size=3))
def test_cli_fuzz_m_list(tmp_path_factory, capsys, valid_inputs, tokens):
    # any comma-joined --m-list text solves with a finite CSV or exits 4 with
    # one line.  At most three values and one subset per value keep an
    # example to three N = 100 solves, whatever ints are drawn: a large m is
    # refused by its range check before anything is allocated
    d = tmp_path_factory.mktemp("mlist")
    for name, text in valid_inputs.items():
        (d / name).write_text(text)
    out = d / "out"
    out.mkdir()
    m_list = ",".join(tokens)
    code = _exit_code(["sweep", "--base", d / "full.csv", "--truth", d / "wf.csv",
                       "--m-list", m_list, "--subsets", 1, "--out", out / "sweep.csv"])
    err = capsys.readouterr().err
    assert code in (0, 4), (m_list, code, err)
    if code == 0:
        assert (out / "sweep.csv").exists()
        _assert_finite_csvs(out)
    else:
        assert len(err.strip().splitlines()) == 1, (m_list, err)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.fixed_dictionaries(
        {name: _csv_edits for name in ("wf.csv", "m.csv", "full.csv", "rec.csv")}
    ),
    subset=st.none() | _subset_json,
)
def test_cli_fuzz_file_inputs(tmp_path_factory, capsys, valid_inputs, edits, subset):
    # corrupted input files make each command succeed with finite outputs or
    # exit 2, 3 or 4, with a one-line message for 3 and 4; no exception
    # escapes cli.main.  Each command reads its own inputs, so one example
    # tests every command.
    d = tmp_path_factory.mktemp("files")
    out = d / "out"  # outputs apart from the corrupted inputs
    out.mkdir()
    for name, text in valid_inputs.items():
        if name in edits:
            text = _edit_csv(text, edits[name])
        elif subset is not None:
            text = subset
        (d / name).write_text(text)
    steps = [
        ["measure", "--in", d / "wf.csv", "--m", 10, "--out", out / "m.csv"],
        ["measure", "--in", d / "wf.csv", "--subset", d / "subset.json",
         "--out", out / "subset.csv"],
        ["recover", "--measurements", d / "m.csv", "--out", out / "rec.csv"],
        ["roc", "--recovered", d / "rec.csv", "--truth", d / "wf.csv",
         "--out", out / "roc.csv"],
        ["sweep", "--base", d / "full.csv", "--truth", d / "wf.csv", "--m-list", "10,60",
         "--subsets", 1, "--out", out / "sweep.csv"],
    ]
    for args in steps:
        code = _exit_code(args)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (args, code)
        assert "Traceback" not in err
        if code in (3, 4):
            assert len(err.strip().splitlines()) == 1, (args, err)
    _assert_finite_csvs(out)
    for path in out.glob("*.json"):
        assert _finite(json.loads(path.read_text())), path


# IEEE edges for every float flag
_FLOAT_EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e308, math.inf, -math.inf, math.nan, -1.0, -1e308]
# integer flags draw only values that allocate nothing large: no huge --n,
# --count, --subsets, --lambda-count or --m, each of which would allocate
# gigabytes or run for minutes; only a seed may be huge
_SEED_FLAGS = ("--seed", "--noise-seed")


def _int_edges(flag):
    floor = cli._FLAGS[flag][0]
    floor = 1 if floor is None else floor  # --m and --sparsity start at 1 too
    return [-(2**64), -1, 0, floor - 1, floor + 1] + ([2**64] if flag in _SEED_FLAGS else [])


def _numeric_flags(command):
    return [f for f in _flags_of(command) if cli._FLAGS[f][1].get("type") in (int, float)]


def _edges(flag):
    """A flag's edge values, and its default so that some draws run deep."""
    keywords = cli._FLAGS[flag][1]
    edges = _FLOAT_EDGES if keywords["type"] is float else _int_edges(flag)
    return edges + [keywords["default"]] if keywords.get("default") is not None else edges


def _flag_values(command):
    """Up to three of the command's numeric flags, each with an edge value."""
    return st.lists(
        st.sampled_from(_numeric_flags(command)).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(_edges(flag)))
        ),
        min_size=1, max_size=3, unique_by=lambda pair: pair[0],
    )


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command_flags=st.sampled_from([c for c in cli._COMMANDS if _numeric_flags(c)]).flatmap(
        lambda command: st.tuples(st.just(command), _flag_values(command))
    ),
)
def test_cli_fuzz_every_numeric_flag(tmp_path_factory, capsys, monkeypatch, valid_inputs,
                                     command_flags):
    # every numeric flag of every command, enumerated from the flag table,
    # at IEEE and range edges around a valid base command: it succeeds with
    # finite outputs or exits with one line, and nothing warns
    command, pairs = command_flags
    d = tmp_path_factory.mktemp("edges")
    monkeypatch.chdir(d)
    for name, text in valid_inputs.items():
        (d / name).write_text(text)
    out = [] if command == "bound" else ["--out", "out/out.csv"]
    (d / "out").mkdir()
    flags = [str(v) for pair in pairs for v in (pair[0], repr(pair[1]))]
    argv = [str(a) for a in (command, *_BASE[command], *flags, *out)]
    _assert_one_route(argv, capsys)
    code = _exit_code(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4), (command, flags, code)
    assert "warning" not in (captured.out + captured.err).lower(), captured
    if code == 0:
        _assert_finite_csvs(d / "out")
        for path in (d / "out").glob("*.json"):
            assert _finite(json.loads(path.read_text())), path
    else:
        assert len(captured.err.strip().splitlines()) == 1, (command, flags, captured.err)
