"""Report containers: JSON safety, CSV rows, atomic writes."""

import json

import numpy as np

from harnack.report import (
    SCHEMA_VERSION,
    AuditReport,
    ReportEnvelope,
    jsonable,
    write_json_atomic,
)


def test_jsonable_flattens_numpy_types():
    obj = {
        "a": np.float64(1.5),
        "b": np.int32(3),
        "c": np.bool_(True),
        "d": np.arange(3),
        "e": (1, np.float32(0.5)),
    }
    out = jsonable(obj)
    assert out == {"a": 1.5, "b": 3, "c": True, "d": [0, 1, 2], "e": [1, 0.5]}
    json.dumps(out)  # round-trippable


def make_report(passed=True):
    return AuditReport(
        audit_id="demo.audit",
        grid={"d": 1},
        constants={"value": np.float64(2.0)},
        worst={"point": (0, 1)},
        passed=passed,
        notes=["note"],
        rows=[{"n": 1, "x": 0.5}, {"n": 2, "x": 0.25, "extra": "y"}],
    )


def test_report_json_excludes_rows():
    body = make_report().to_json_dict()
    assert "rows" not in body
    assert body["constants"]["value"] == 2.0
    json.dumps(body)


def test_rows_csv_uses_plain_newlines_and_dot_decimals(tmp_path):
    path = tmp_path / "rows.csv"
    make_report().write_rows_csv(path)
    raw = path.read_bytes()
    assert b"\r\n" not in raw
    text = raw.decode()
    lines = text.strip().split("\n")
    assert lines[0] == "n,x,extra"
    assert lines[1] == "1,0.5,"
    assert "0.25" in lines[2]


def test_envelope_verdict_and_body():
    env = ReportEnvelope(
        config={"command": "demo"},
        audits=[make_report(True), make_report(False)],
        timings={"demo.audit": 0.25},
    )
    assert not env.passed
    body = env.to_json_dict()
    assert body["schema"] == SCHEMA_VERSION
    assert body["timings"] == {"demo.audit": 0.25}
    stripped = env.body_without_timings()
    assert "timings" not in stripped
    assert stripped["audits"][0]["audit_id"] == "demo.audit"


def test_write_json_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "report.json"
    write_json_atomic(target, {"x": np.float64(1.0)})
    assert json.loads(target.read_text()) == {"x": 1.0}
    assert target.read_text().endswith("\n")
    leftovers = [p for p in target.parent.iterdir() if p.name != "report.json"]
    assert leftovers == []
