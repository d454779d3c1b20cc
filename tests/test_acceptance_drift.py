"""The acceptance drift check names changed values and passes over timings."""

import acceptance_drift


def _report(test, ok=True, detail="err 1.0e-03, 1.7s", **values):
    return {"name": test, "test": test, "ok": ok, "detail": detail, "values": values}


def test_drift_names_changed_values_and_skips_timings():
    reference = [
        _report("a", err=1e-3, elapsed_s=1.7),
        _report("b", detail="crossing m = 34, sweeps 0.4s", m=34, sweeps_s=0.4),
        _report("gone", x=1),
    ]
    current = [
        _report("a", err=2e-3, elapsed_s=9.1, detail="err 1.0e-03, 12.5s"),
        _report("b", detail="crossing m = 34, sweeps 3s", m=34, sweeps_s=3.0),
        _report("added", x=1),
    ]
    assert acceptance_drift.drift(current, reference) == [
        "a values.err: 0.001 -> 0.002",
        "added: new report",
        "gone: missing report",
    ]


def test_drift_names_ok_detail_and_absent_keys():
    reference = [_report("a", ok=False, detail="rel err 0.066 vs 0.05", rel_err=0.066)]
    current = [_report("a", detail="rel err 0.040 vs 0.05", abs_err=0.002)]
    assert acceptance_drift.drift(current, reference) == [
        "a detail: 'rel err 0.066 vs 0.05' -> 'rel err 0.040 vs 0.05'",
        "a ok: False -> True",
        "a values.abs_err: '<absent>' -> 0.002",
        "a values.rel_err: 0.066 -> '<absent>'",
    ]


def test_identical_reports_do_not_drift():
    reports = [_report("a", err=1e-3, elapsed_s=0.1), _report("b", m=34)]
    assert acceptance_drift.drift(reports, [dict(r) for r in reports]) == []
