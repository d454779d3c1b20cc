"""Acceptance drift: compare the acceptance reports of the last Tier-1 run
with the newest checked-in ``ACCEPTANCE_*.json``, value by value.

    PYTHONPATH=src python -m pytest -q        # writes .pytest_cache/acceptance.json
    python tests/acceptance_drift.py          # exit 1 and name each drifted key

Each report is matched by its test id.  Its ``ok`` flag, its ``detail`` text
and every raw value are compared exactly, except the timings, which move
from run to run: the ``elapsed_s`` and ``sweeps_s`` values and the seconds
in ``detail`` (``1.7s``, ``sweeps 0.4s``).  A report on one side only is
drift too.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CURRENT = ROOT / ".pytest_cache" / "acceptance.json"
TIMINGS = {"elapsed_s", "sweeps_s"}
SECONDS = re.compile(r"\d+(?:\.\d+)?s\b")


def newest_reference() -> Path:
    """The ``ACCEPTANCE_*.json`` at the root with the highest label, read
    with its numbers as numbers (``pr9`` before ``pr10``)."""
    def label(path):
        return [int(part) if part.isdigit() else part
                for part in re.split(r"(\d+)", path.stem)]
    references = sorted(ROOT.glob("ACCEPTANCE_*.json"), key=label)
    if not references:
        sys.exit(f"no ACCEPTANCE_*.json in {ROOT}")
    return references[-1]


def _compared(report: dict) -> dict:
    """A report's fields as compared: timings left out or masked."""
    fields = {"ok": report["ok"], "detail": SECONDS.sub("<s>", report["detail"])}
    fields.update((f"values.{key}", value) for key, value in report["values"].items()
                  if key not in TIMINGS)
    return fields


def drift(current: list, reference: list) -> list:
    """Lines naming each report or key that differs, is missing or is new."""
    now = {report["test"]: _compared(report) for report in current}
    then = {report["test"]: _compared(report) for report in reference}
    lines = []
    for test in sorted(now.keys() | then.keys()):
        if test not in now or test not in then:
            lines.append(f"{test}: {'missing' if test in then else 'new'} report")
            continue
        for key in sorted(now[test].keys() | then[test].keys()):
            old, new = then[test].get(key, "<absent>"), now[test].get(key, "<absent>")
            if old != new:
                lines.append(f"{test} {key}: {old!r} -> {new!r}")
    return lines


def main() -> int:
    reference = newest_reference()
    lines = drift(json.loads(CURRENT.read_text()), json.loads(reference.read_text()))
    for line in lines:
        print(f"drift: {line}")
    if not lines:
        print(f"no drift: {CURRENT.relative_to(ROOT)} matches {reference.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
