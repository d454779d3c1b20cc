"""Command-line interface behaviour and exit codes."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsemag import cli
from sparsemag.cli import main
from sparsemag.grids import PulseSpec, make_grids, synth_waveform, waveform_from_csv
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
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["synth", "--pulses", "1.0e-3,1000", "--out", tmp_path / "x.csv"])
    assert excinfo.value.code == 2
    assert "malformed pulse spec" in capsys.readouterr().err


def test_measure_full_noiseless_matches_dst(tmp_path, pulse_csv):
    out = tmp_path / "m.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--no-noise",
                    "--out", out]) == 0
    measured = measurements_from_csv(out, 100)
    assert measured.subsample.m == 99
    truth = apply_dst(dst_matrix(100), waveform_from_csv(pulse_csv))
    # Magnus tolerance at the full 1 kHz amplitude
    assert np.max(np.abs(measured.values - truth)) < 0.07 * np.max(np.abs(truth))


def test_measure_subset_row_count(tmp_path, pulse_csv):
    out = tmp_path / "m60.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--seed", 7,
                    "--out", out]) == 0
    assert measurements_from_csv(out, 100).subsample.m == 60


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


@pytest.mark.parametrize("flags", [["--n", 200], ["--dt", 25e-6]])
def test_recover_rejects_a_grid_the_file_contradicts(tmp_path, pulse_csv, capsys, flags):
    # the file reads freq_hz = k/(2 N dt) at N = 100, dt = 50 us; a grid of
    # another N dt gives other frequencies, and is named, not solved on
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


@pytest.mark.parametrize("flags", [["--seed", -1], ["--full", "--seed", -1],
                                   ["--full", "--noise-seed", -1]])
def test_measure_negative_seed(tmp_path, pulse_csv, capsys, flags):
    code = run_cli(["measure", "--in", pulse_csv, *flags, "--out", tmp_path / "m.csv"])
    _assert_numeric_error(code, capsys, "non-negative")


@pytest.mark.parametrize("args, bad", [
    (["measure", "--m", 10, "--seed", -1], -1),
    (["measure", "--m", 10, "--noise-seed", -1], -1),
    (["tune", "--count", 1, "--seed", -3], -3),
])
def test_negative_seeds_are_named(tmp_path, pulse_csv, capsys, args, bad):
    command = [*args[:1], "--in", pulse_csv, *args[1:]] if args[0] == "measure" else args
    code = run_cli([*command, "--out", tmp_path / "out.csv"])
    _assert_numeric_error(code, capsys, f"seed keys must be non-negative integers, got {bad}")
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
    _assert_numeric_error(code, capsys, "n_grid must be >= 2")
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
])
def test_bad_inputs_are_named(tmp_path, pulse_csv, capsys, monkeypatch, args, message):
    # a 5e-324 s grid (which synth accepts), a malformed --m-list, and a
    # 399-row base read without --n each exit 4 with one line naming them
    monkeypatch.chdir(tmp_path)
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
    assert err.startswith("error: numeric") and "subsets_per_m" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sweep_rejects_bad_lambda(tmp_path, pulse_csv, capsys):
    base = tmp_path / "full.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--full", "--out", base]) == 0
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    code = run_cli(["sweep", "--base", base, "--truth", pulse_csv, "--m-list", "20",
                    "--lambda", -1, "--out", out])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric: lam must lie in (0, inf)")
    assert len(err.strip().splitlines()) == 1
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
    assert count_line == "error: numeric: count must be >= 1\n"
    assert lambda_line == "error: numeric: lambda count must be >= 2\n"
    assert not out.exists()


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
    _assert_numeric_error(code, capsys, "field limit")


@pytest.mark.parametrize("command", ["synth", "measure", "recover", "roc", "bound"])
def test_main_runs_the_command_bound_when_it_is_called(monkeypatch, command):
    # the parser is built once per process, so a cmd_* replaced after the
    # build (a wrapper, say) must still be the function main runs
    required = {"measure": ["--in", "x"], "recover": ["--measurements", "x"],
                "roc": ["--recovered", "x", "--truth", "x"], "bound": ["--sparsity", 3]}
    argv = [command, *required.get(command, [])]
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args) or 7)
    assert run_cli(argv) == 7
    assert [args.command for args in calls] == [command]


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
    # every input either succeeds with finite CSVs or exits 2, 3 or 4; no
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
        assert code in (0, 2, 3, 4), (args, code)
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
