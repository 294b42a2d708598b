"""What the benchmark's tracer (``perfbench/tracer.py``) needs from the package.

The tracer wraps package functions by name and reads the killed-matrix memo
from outside; a rename or a memo change would break the benchmark's
per-layer figures without failing any other test.  The tracer's source is
parsed, not imported, so nothing under ``perfbench/`` is run or written.
"""

import ast
import importlib
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
