"""What the benchmark's tracer (``perfbench/tracer.py``) needs from the package.

The tracer wraps package functions by name and reads the killed-matrix memo
from outside; a rename, a memo change or a workload that stops calling a
wrapped name would break the benchmark's per-layer figures without failing
any other test.  The tracer's and the runner's sources are parsed, not
imported, so nothing under ``perfbench/`` is run or written.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

from harnack import cli, kernel
from harnack.cache import KernelCache
from harnack.lattice import FiniteDomain, make_ball
from harnack.report import AuditReport

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
RUN = TRACER.parent / "run.py"
# each benchmark workload's command lines, as ``perfbench/run.py`` builds them at seed 0
WORKLOAD_COMMANDS = {
    "all-d2": [["all", "--dim", "2", "--seed", "0", "--threads", "1", "--out", "{work}/report.json"]],
    "all-d1-csv-cache": [
        ["all", "--dim", "1", "--seed", "0", "--threads", "1", "--format", "csv",
         "--cache-dir", "{work}/cache", "--out", "{work}/report"],
        ["cache", "list", "--cache-dir", "{work}/cache"],
        ["cache", "verify", "--fraction", "1.0", "--seed", "0", "--cache-dir", "{work}/cache"],
    ],
}


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


def test_a_domain_that_is_not_a_ball_is_never_in_the_killed_memo():
    # The tracer counts a call as a build when args[0].key() is not in the memo.
    D = FiniteDomain.from_points([(x, 0) for x in range(4)] + [(0, 1)])
    assert D.key() is None
    kernel.killed_matrix(D)
    assert D.key() not in kernel._KILLED


def _not_run() -> dict[str, tuple[str, ...]]:
    """Each workload's ``not_run`` prefixes, read off the ``Workload(...)`` calls of ``run.py``."""
    prefixes = {}
    for node in ast.walk(ast.parse(RUN.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            keywords = {k.arg: k.value for k in node.keywords}
            prefixes[ast.literal_eval(node.args[0])] = ast.literal_eval(keywords.get("not_run", ast.Tuple([])))
    return prefixes


def test_the_benchmark_workloads_reach_the_free_field_names(monkeypatch, tmp_path, capsys):
    # The benchmark's "per-layer trace complete" check fails when a workload
    # no longer calls a name the tracer counts, spans or steps.  Run each
    # workload's command lines in this process, each with fresh memos as in
    # a fresh process, and rebind the names in every harnack module, as the
    # tracer does.
    tables = _tracer_tables()
    names = [(m, f) for table in ("COUNTED", "SPANNED", "GENERATORS") for m, fns in tables[table].items() for f in fns]
    for module in {m for m, _ in names}:
        importlib.import_module("harnack." + module)
    modules = [m for n, m in sys.modules.items() if n == "harnack" or n.startswith("harnack.")]
    calls = dict.fromkeys((f"{m}.{f}" for m, f in names), 0)
    for module_name, fn in names:
        original = getattr(sys.modules["harnack." + module_name], fn)

        def counted(*args, _name=f"{module_name}.{fn}", _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    benchmark = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in benchmark["workloads"]) == sorted(WORKLOAD_COMMANDS)
    not_run = _not_run()
    for workload, commands in WORKLOAD_COMMANDS.items():
        calls.update(dict.fromkeys(calls, 0))
        for command in commands:
            monkeypatch.setattr(kernel.Memo, "held", 0)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if isinstance(value, kernel.Memo):
                        monkeypatch.setattr(module, attr, kernel.Memo())
            assert cli.main([arg.format(work=tmp_path / workload) for arg in command]) == 0, command
        capsys.readouterr()
        missing = [n for n, c in calls.items() if c == 0 and not (n + ".").startswith(not_run[workload])]
        assert missing == [], f"{workload} no longer reaches {missing}"
