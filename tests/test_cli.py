"""Command-line interface behaviour and exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_bound_prints_reference_values(capsys):
    assert run_cli(["bound", "--sparsity", 4, "--n", 100]) == 0
    assert capsys.readouterr().out.strip() == "34"
    assert run_cli(["bound", "--sparsity", 8, "--n", 100]) == 0
    assert capsys.readouterr().out.strip() == "57"


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


def test_sweep_requires_full_base(tmp_path, pulse_csv):
    partial = tmp_path / "partial.csv"
    assert run_cli(["measure", "--in", pulse_csv, "--m", 60, "--out", partial]) == 0
    code = run_cli(["sweep", "--base", partial, "--truth", pulse_csv,
                    "--m-list", "20", "--out", tmp_path / "f.csv"])
    assert code == 4


def test_tune_tiny(tmp_path, capsys):
    out = tmp_path / "tune.csv"
    code = run_cli(["tune", "--count", 2, "--lambda-low", 0.5, "--lambda-high", 2.0,
                    "--lambda-count", 3, "--out", out])
    assert code == 0
    assert out.read_text().startswith("lambda_hz,mean_l1_error\n")
    assert "best_lambda_hz" in capsys.readouterr().out


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
