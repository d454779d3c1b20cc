"""Shared fixtures for the test suite."""

import json
import subprocess
import sys

import pytest

from childenv import child_env


@pytest.fixture
def run_sparsemag():
    """Run ``python -m sparsemag ARGS`` in ``cwd`` and return the completed process.

    The child imports the same ``sparsemag`` as this test process
    (``childenv.child_env``).  A non-zero exit fails the test with the
    child's stderr in the message.
    """
    env = child_env()

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
    """Write the session's acceptance reports (name, ok, detail and the raw
    values), in test order, to ``.pytest_cache/acceptance.json`` under the
    rootdir; a session that ran no acceptance test leaves the file as it was."""
    reports = [
        dict(value, test=item.nodeid)
        for item in session.items
        for key, value in item.user_properties
        if key == "acceptance"
    ]
    if reports:
        path = session.config.rootpath / ".pytest_cache" / "acceptance.json"
        path.parent.mkdir(exist_ok=True)
        # numpy scalars are written as the Python numbers they hold
        text = json.dumps(reports, indent=1, default=lambda value: value.item())
        path.write_text(text + "\n")
