"""The environment of a child Python process that imports this sparsemag."""

import os
from pathlib import Path

import sparsemag

PACKAGE_ROOT = str(Path(sparsemag.__file__).resolve().parents[1])


def child_env(**extra) -> dict:
    """``os.environ`` with ``extra`` set and the directory that holds this
    process's ``sparsemag`` first on ``PYTHONPATH``, so a relative
    ``PYTHONPATH`` (such as ``src``) still resolves when the child runs in
    another directory."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env
