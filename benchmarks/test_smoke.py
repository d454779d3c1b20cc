"""Smoke test of the benchmark at tiny size (4-input pools, one setup probe).

    python3 -m pytest benchmarks/test_smoke.py

``run.py`` runs as a subprocess by absolute path and finds ``src`` from its
own location, so this works from any working directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--tiny", *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc, result = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        shares = [m["value"] for n, m in result["metrics"].items() if n.endswith(".self_share")]
        assert len(shares) == 7
        assert min(shares) >= 0.0
        assert sum(shares) <= 1.0 + 1e-9
        if workload == "cli_pipeline":
            assert result["metrics"]["cli.bytes_read"]["value"] > 0
            assert result["metrics"]["cli.bytes_written"]["value"] > 0


def test_corrupted_reference_fails_the_run(tmp_path):
    values = json.loads((HERE / "reference.json").read_text())
    values["cli.measure_csv_sha256"] = "0" * 64  # an exact sampler check
    values["cli.auc"] -= 0.01  # a toleranced grading check
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(values))
    proc, result = bench("--workload", "cli_pipeline", "--reference", str(corrupted))
    assert proc.returncode != 0
    assert result is not None and not result["correct"]
    assert result["failed"] == 2
    assert "cli.measure_csv_sha256" in proc.stderr and "cli.auc" in proc.stderr


def test_refuses_to_run_without_the_library(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc, result = bench("--workload", "tune", script=bare / HERE.name / "run.py")
    assert proc.returncode != 0
    assert result is None
