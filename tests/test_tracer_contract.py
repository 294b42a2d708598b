"""What the benchmark's tracer (``perfbench/tracer.py``) needs from the package.

The tracer wraps package functions by name and reads the killed-matrix memo
from outside; a rename or a memo change would break the benchmark's
per-layer figures without failing any other test.  The tracer's source is
parsed, not imported, so nothing under ``perfbench/`` is run or written.
"""

import ast
import importlib
import sys
from pathlib import Path

from harnack import kernel
from harnack.cache import KernelCache
from harnack.lattice import make_ball
from harnack.report import AuditReport

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_tables() -> dict[str, dict[str, list[str]]]:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("COUNTED", "SPANNED", "GENERATORS", "AUDITS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_name_the_tracer_wraps_exists():
    tables = _tracer_tables()
    assert sorted(tables) == ["AUDITS", "COUNTED", "GENERATORS", "SPANNED"]
    for table in tables.values():
        for module, names in table.items():
            mod = importlib.import_module("harnack." + module)
            for name in names:
                assert callable(getattr(mod, name, None)), f"harnack.{module}.{name}"


def test_the_wrapped_methods_exist():
    from harnack import report

    for method in ("put_free", "put_killed", "put_green", "list_entries", "verify"):
        assert callable(getattr(KernelCache, method, None)), method
    assert callable(AuditReport.write_rows_csv)
    assert callable(report.write_json_atomic)


def test_the_killed_memo_answers_membership_by_ball_key():
    assert '"harnack.kernel"]._KILLED' in TRACER.read_text()
    B = make_ball((23, -9), 4)  # a ball no other test builds
    assert B.key() not in kernel._KILLED
    kernel.killed_matrix(B)
    assert B.key() in kernel._KILLED


def test_the_benchmark_workloads_reach_the_free_field_names(monkeypatch, tmp_path):
    # Every workload must call `iter_free_fields`, and the cache workload
    # `free_field`, or the tracer's per-layer record is incomplete.  Rebind
    # them in every harnack module, as the tracer does.
    calls = {"iter_free_fields": 0, "free_field": 0}
    for name in calls:
        original = getattr(kernel, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in [m for n, m in sys.modules.items() if n == "harnack" or n.startswith("harnack.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert kernel.exactness_audit(2, 4).passed
    assert kernel.projection_audit(4).passed
    assert calls == {"iter_free_fields": 2, "free_field": 0}
    cache = KernelCache(tmp_path)
    cache.put_free(1, 3, kernel.free_field(1, 3))
    calls["free_field"] = 0
    assert cache.verify(fraction=1.0, seed=0)["ok"]
    assert calls["free_field"] == 1
