"""Shared fixtures for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsemag


@pytest.fixture
def run_sparsemag():
    """Run ``python -m sparsemag ARGS`` in ``cwd`` and return the completed process.

    The child imports the same ``sparsemag`` as this test process: the
    directory that holds it goes first on ``PYTHONPATH``, so a relative
    ``PYTHONPATH`` (such as ``src``) still resolves when ``cwd`` is elsewhere.
    The rest of the environment is passed on unchanged.  A non-zero exit fails
    the test with the child's stderr in the message.
    """
    package_root = str(Path(sparsemag.__file__).resolve().parents[1])
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )

    def run(args, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsemag", *args],
            capture_output=True, cwd=cwd, env=env,
        )
        assert proc.returncode == 0, (
            f"sparsemag {' '.join(args)} exited with "
            f"{proc.returncode}:\n{proc.stderr.decode(errors='replace')}"
        )
        return proc

    return run


def pytest_sessionfinish(session):
    """Write the session's acceptance reports (name, ok, detail), in test
    order, to ``.pytest_cache/acceptance.json`` under the rootdir; a session
    that ran no acceptance test leaves the file as it was."""
    reports = [
        dict(value, test=item.nodeid)
        for item in session.items
        for key, value in item.user_properties
        if key == "acceptance"
    ]
    if reports:
        path = session.config.rootpath / ".pytest_cache" / "acceptance.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reports, indent=1) + "\n")
