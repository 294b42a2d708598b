"""README examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quickstart (library)"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(float(v) > 0 for v in printed)
