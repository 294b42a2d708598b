"""README examples run as written."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from harnack.cli import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quickstart (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(float(v) > 0 for v in printed)


def test_flag_table_matches_the_run_config():
    # Every RunConfig field but `command` has one row; `none` and `per-command` mean None.
    text = README.read_text()
    section = text[text.index("### Flags and environment"):text.index("### Exit codes")]
    defaults = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
    kinds = get_type_hints(RunConfig)
    table = {}
    for flags, values in re.findall(r"^\| (`--.*?) \| (.*?) \|", section, re.M):
        names = [flag.strip("`").removeprefix("--").replace("-", "_") for flag in flags.split(", ")]
        for name, raw in zip(names, values.split(", "), strict=True):
            assert name not in table, f"--{name} has two rows"
            if raw in ("none", "per-command"):
                table[name] = None
            else:
                kind = kinds[name]
                table[name] = raw if kind not in (int, float) else kind(raw)
    assert table == defaults


def test_gate_table_matches_the_module_constants():
    # Each row names an audit, its gate, the gate's value and the module constant that holds it.
    text = README.read_text()
    section = text[text.index("### Audit gates"):text.index("### Cache")]
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \| .*? \| (\S+) \| `(\w+)\.(\w+)` \|$", section, re.M)
    assert len(rows) == 17
    for audit_id, value, module, name in rows:
        constant = getattr(importlib.import_module("harnack." + module), name)
        assert ast.literal_eval(value) == constant, f"{audit_id}: README {value}, {module}.{name} = {constant}"


SRC = README.parent / "src" / "harnack"
PAPER_STEPS = ("LCLT", "Gaussian bounds", "exit-time tail", "uniform Green inequality", "balayage", "EHI")


def _task_families() -> set[str]:
    """The audit-id family (``kernel.exactness``) of every task in ``cli._tasks_for``, read from the source."""
    cli = ast.parse((SRC / "cli.py").read_text())
    tasks = next(n for n in ast.walk(cli) if isinstance(n, ast.FunctionDef) and n.name == "_tasks_for")
    audits = set()
    for node in ast.walk(tasks):
        if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
            audits.add((node.body.func.value.id, node.body.func.attr))
    assert len(audits) >= 20
    families = set()
    for module, name in audits:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        ids = [k.value for n in ast.walk(fn) if isinstance(n, ast.Call) for k in n.keywords if k.arg == "audit_id"]
        text = ids[0].values[0].value if isinstance(ids[0], ast.JoinedStr) else ids[0].value
        families.add(re.match(r"([a-z_]+\.[a-z_]+)\.d", text).group(1))
    return families


def test_the_audit_map_has_one_row_per_task_family():
    # Each audit of the task table has one row: its paper step, what it computes and its gate.
    text = README.read_text()
    section = text[text.index("## What it computes"):text.index("## Install")]
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \| (.*?) \| .+ \| .+ \|$", section, re.M)
    assert sorted(family for family, _ in rows) == sorted(_task_families())
    assert {step for _, step in rows} == set(PAPER_STEPS)
