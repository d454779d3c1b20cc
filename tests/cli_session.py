"""CLI session digests: a fixed session of CLI commands, one fresh process
per step, with every byte it leaves compared by SHA-256 against
``tests/data/cli_session.json``.

    PYTHONPATH=src python tests/cli_session.py          # list the entries that moved
    PYTHONPATH=src python tests/cli_session.py --write  # rewrite the file, list what moved

The session is criterion 11's ``CLI_RUNS`` followed by ``MORE_RUNS``, which
reach what those do not, and ``DEMO_RUNS``, the five scripts of ``demos/``.
The steps run in order in one directory that holds only ``subset.json`` and
a copy of ``demos/`` at the start, each with BLAS on one thread and an
80-column terminal.  A step's entries are its exit code, the digests of its
stdout and stderr, and the digest of each file it makes or rewrites
(artefact, manifest, ``.meta.json``, ``.auc.json``, a demo's files under
``demos/output``).  An entry is named ``<step> <what>``, e.g. ``roc
roc.csv.auc.json`` or ``demo-04 demos/output/auc.json``.  A demo prints the
absolute paths it writes, so the session directory is read as ``<session>``
in every stdout and stderr before it is digested.

The file also records the host that made it.  On a host with another BLAS or
another machine, a solve may end a few ulps away, so there the steps of the
solver commands (``recover``, ``roc`` of a recovery, ``tune``, ``sweep``) and
of the demos that solve (03, 04 and 05) are left out of the comparison.
argparse words its help and usage text differently from one Python minor
version to the next, so on another minor version the steps that print that
text are left out.
"""

import hashlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from childenv import child_env
from test_acceptance import CLI_RUNS

DIGESTS = Path(__file__).resolve().parent / "data" / "cli_session.json"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
SUBSET_JSON = '{"n_grid": 100, "indices": [2, 3, 50, 71]}'

# after CLI_RUNS, in its directory: the flags and paths it leaves untried
MORE_RUNS = [
    ("measure-no-noise", ["measure", "--in", "wf.csv", "--m", "60", "--no-noise",
                          "--out", "quiet.csv"]),
    ("measure-subset", ["measure", "--in", "wf.csv", "--subset", "subset.json",
                        "--out", "sub.csv"]),
    ("measure-wide-seeds", ["measure", "--in", "wf.csv", "--m", "60", "--seed", "1099511627776",
                            "--noise-seed", "4294967296", "--out", "wide.csv"]),
    ("synth-200", ["synth", "--n", "200", "--pulses", "1.025e-3,1000,200e-6;6.1e-3,-800,200e-6",
                   "--out", "wf200.csv"]),
    ("measure-200", ["measure", "--in", "wf200.csv", "--m", "120", "--seed", "9",
                     "--out", "m200.csv"]),
    ("recover-200", ["recover", "--measurements", "m200.csv", "--n", "200", "--out", "rec200.csv"]),
    ("roc-200", ["roc", "--recovered", "rec200.csv", "--truth", "wf200.csv",
                 "--out", "roc200.csv"]),
    # a 20-tap template, and sweep blocks whose ROC rows have several lengths
    ("synth-fine", ["synth", "--n", "200", "--dt", "1e-05",
                    "--pulses", "5e-4,1000,200e-6;1.3e-3,-800,200e-6", "--out", "wf-fine.csv"]),
    ("measure-fine", ["measure", "--in", "wf-fine.csv", "--full", "--seed", "11",
                      "--out", "full-fine.csv"]),
    ("sweep-fine", ["sweep", "--base", "full-fine.csv", "--truth", "wf-fine.csv", "--n", "200",
                    "--m-list", "10,60,150", "--subsets", "8", "--out", "sweep-fine.csv"]),
    ("bound-note", ["bound", "--sparsity", "40", "--n", "100"]),
    ("fail-usage", ["synth", "--pulses", "1e-3,1000", "--out", "bad.csv"]),
    ("fail-io", ["measure", "--in", "missing.csv", "--full", "--out", "bad.csv"]),
    ("fail-numeric", ["measure", "--in", "wf.csv", "--m", "200", "--out", "bad.csv"]),
    ("help", ["--help"]),
    ("help-measure", ["measure", "--help"]),
]
# each demo from the session's copy of demos/, which it writes its output under
DEMO_RUNS = [(f"demo-{path.name[:2]}", [f"demos/{path.name}"])
             for path in sorted(DEMOS.glob("*.py"))]
STEPS = [*CLI_RUNS, *MORE_RUNS, *DEMO_RUNS]

SOLVER_COMMANDS = {"recover", "roc", "tune", "sweep"}
SOLVER_DEMOS = {"demo-03", "demo-04", "demo-05"}
ARGPARSE_TEXT = {"fail-usage", "help", "help-measure"}


def host() -> dict:
    """What a step's bytes may depend on beyond the code: the Python minor
    version, numpy's BLAS and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "machine": f"{platform.machine()} {_cpu_model()}".strip(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def left_out(recorded_host: dict) -> set:
    """The steps whose bytes may differ between the recorded host and this one."""
    differs = {key for key, value in host().items() if recorded_host.get(key) != value}
    return {name for name, args in STEPS
            if ("python" in differs and name in ARGPARSE_TEXT)
            or (differs & {"blas", "machine"}
                and (args[0] in SOLVER_COMMANDS or name in SOLVER_DEMOS))}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(directory: Path) -> dict:
    return {path.relative_to(directory).as_posix(): _sha(path.read_bytes())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def run_session(directory) -> dict:
    """Run every step in ``directory``; return its entries, in step order."""
    directory = Path(directory).resolve()
    session = str(directory).encode()
    env = child_env(OPENBLAS_NUM_THREADS="1", COLUMNS="80")
    (directory / "subset.json").write_text(SUBSET_JSON)
    shutil.copytree(DEMOS, directory / "demos",
                    ignore=shutil.ignore_patterns("output", "__pycache__"))
    files = _file_digests(directory)
    entries = {}
    for name, args in STEPS:
        command = args if args[0].endswith(".py") else ["-m", "sparsemag", *args]
        proc = subprocess.run([sys.executable, *command], capture_output=True, cwd=directory,
                              env=env)
        entries[f"{name} exit"] = proc.returncode
        entries[f"{name} stdout"] = _sha(proc.stdout.replace(session, b"<session>"))
        entries[f"{name} stderr"] = _sha(proc.stderr.replace(session, b"<session>"))
        now = _file_digests(directory)
        entries.update((f"{name} {file}", digest) for file, digest in now.items()
                       if files.get(file) != digest)
        files = now
    return entries


def moved(recorded: dict, entries: dict, skipped=frozenset()) -> list:
    """The entries that differ, are missing or are new, outside ``skipped`` steps."""
    return sorted(key for key in recorded.keys() | entries.keys()
                  if key.split(" ", 1)[0] not in skipped and recorded.get(key) != entries.get(key))


def main(argv) -> int:
    write = argv == ["--write"]
    if argv and not write:
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"host": {}, "entries": {}}
    with tempfile.TemporaryDirectory() as directory:
        entries = run_session(directory)
    changed = moved(recorded["entries"], entries, set() if write else left_out(recorded["host"]))
    for key in changed:
        print(f"moved: {key}")
    if write:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps({"host": host(), "entries": entries}, indent=1) + "\n")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
