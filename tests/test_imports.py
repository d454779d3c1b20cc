"""Cold start: importing sparsemag, every CLI command and a stepped-unitary
shot leave scipy unloaded.

The package runs on numpy alone; scipy is a test dependency only, and
importing ``scipy.fft`` would be most of the package's import time.  Each
check runs in a fresh interpreter, since this test process has scipy loaded
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsemag
from sparsemag.transform import SineInterpolant

PACKAGE_ROOT = str(Path(sparsemag.__file__).resolve().parents[1])

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _python(*args, cwd=None):
    """Run ``python ARGS`` with this sparsemag first on the path; return the
    completed process, whose exit code must be 0."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    proc = _python("-c", f"import json, sys\nimport sparsemag, sparsemag.cli\nprint(json.dumps({SCIPY_MODULES}))")
    assert _last_json(proc) == []


# one fresh-process session, run in order in one directory
SESSION = [
    ["synth", "--pulses", "1.0e-3,1000,200e-6", "--out", "wf.csv"],
    ["measure", "--in", "wf.csv", "--m", "60", "--out", "m.csv"],
    ["measure", "--in", "wf.csv", "--full", "--out", "full.csv"],
    ["recover", "--measurements", "m.csv", "--out", "rec.csv"],
    ["roc", "--recovered", "rec.csv", "--truth", "wf.csv", "--out", "roc.csv"],
    ["sweep", "--base", "full.csv", "--truth", "wf.csv", "--m-list", "20", "--subsets", "2",
     "--out", "sweep.csv"],
    ["tune", "--count", "2", "--lambda-count", "3", "--out", "tune.csv"],
    ["bound", "--sparsity", "8", "--n", "100"],
]


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    # `python -X importtime -m sparsemag ARGS` lists on stderr every module
    # the command imports, up to its exit
    for args in SESSION:
        stderr = _python("-X", "importtime", "-m", "sparsemag", *args, cwd=tmp_path).stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
                    if line.startswith("import time:")}
        assert "sparsemag.cli" in imported, args[0]
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")], args[0]


def test_unitary_shots_leave_scipy_unloaded():
    code = (
        "import json, sys\n"
        "import sparsemag as sm\n"
        "tgrid, _ = sm.make_grids(100, 50e-6)\n"
        "waveform = sm.synth_waveform(tgrid, [sm.PulseSpec(1000.0, 200e-6, 1e-3)])\n"
        "shots = [sm.measure_sine_coefficient(waveform, 17, noise, shot_seed=3)\n"
        "         for noise in (None, sm.NoiseModel(200.0, 1000.0, seed=4))]\n"
        f"print(json.dumps([shots, {SCIPY_MODULES}]))\n"
    )
    shots, loaded = _last_json(_python("-c", code))
    assert len(shots) == 2 and loaded == []


@pytest.mark.parametrize("n_steps", [1, 7, 203])
def test_at_midpoints_matches_the_series(n_steps):
    signal = SineInterpolant(np.random.default_rng(5).normal(size=99), 5e-3)
    t = (np.arange(n_steps) + 0.5) * 5e-3 / n_steps
    fast, direct = signal.at_midpoints(n_steps), signal(t)
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))
