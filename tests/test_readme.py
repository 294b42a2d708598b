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
    assert len(rows) == 15
    for audit_id, value, module, name in rows:
        constant = getattr(importlib.import_module("harnack." + module), name)
        assert ast.literal_eval(value) == constant, f"{audit_id}: README {value}, {module}.{name} = {constant}"
