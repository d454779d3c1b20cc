"""Cold start: importing sparsemag, every CLI command and a stepped-unitary
shot leave scipy unloaded.

The package runs on numpy alone; scipy is a test dependency only, and
importing ``scipy.fft`` would be most of the package's import time.  Each
check runs in a fresh interpreter, since this test process has scipy loaded
already.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from childenv import child_env
from sparsemag.transform import SineInterpolant
from test_acceptance import CLI_RUNS

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _python(*args, cwd=None):
    """Run ``python ARGS`` with this sparsemag first on the path; return the
    completed process, whose exit code must be 0."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_unloaded():
    proc = _python("-c", f"import json, sys\nimport sparsemag, sparsemag.cli\nprint(json.dumps({SCIPY_MODULES}))")
    assert _last_json(proc) == []


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    # `python -X importtime -m sparsemag ARGS` lists on stderr every module
    # the command imports, up to its exit
    for _, args in CLI_RUNS:  # criterion 11's session, run in order in one directory
        stderr = _python("-X", "importtime", "-m", "sparsemag", *args, cwd=tmp_path).stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
                    if line.startswith("import time:")}
        assert "sparsemag.cli" in imported, args[0]
        assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")], args[0]


def test_unitary_shots_leave_scipy_unloaded():
    code = (
        "import json, sys\n"
        "import sparsemag as sm\n"
        "tgrid = sm.TimeGrid(100, 50e-6)\n"
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
