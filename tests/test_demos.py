"""Each demo runs to completion from a copy of ``demos/`` and writes its files."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from childenv import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"
OUTPUTS = {
    "01_waveform_and_transform.py": ["waveform.csv", "spectrum.csv"],
    "02_single_shot_sensor.py": [],
    "03_compressive_recovery.py": [
        "protocol_ramsey.csv", "protocol_full_dst.csv", "protocol_compressive.csv",
    ],
    "04_detection_roc.py": ["roc.csv", "auc.json"],
    "05_sample_count_sweep.py": ["sweep_one-pulse.csv", "sweep_two-pulse.csv"],
}


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs_and_writes_its_files(tmp_path, demo):
    demos = tmp_path / "demos"
    shutil.copytree(DEMOS, demos, ignore=shutil.ignore_patterns("output", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, demos / demo], capture_output=True, cwd=tmp_path, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    for name in OUTPUTS[demo]:
        assert (demos / "output" / name).stat().st_size > 0, name
