"""Move golden report bodies to the current code, one named audit at a time.

    PYTHONPATH=src python tests/golden/move.py [AUDIT_ID ...]

Reruns the configurations of ``tests/test_golden.py`` (``CONFIGS``) and
compares each body with its golden file.  If a config, a verdict, a grid, a
note or the list of audits changed, it says which and exits 1, writing
nothing.  Otherwise it prints every changed witness (a value that is not a
float) and every float outside the audit's ``TOLERANCES`` as
``audit.field: old -> new``, and rewrites, in place, only the audits named
on the command line.  With no names it only reports.
"""

import json
import math
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from harnack.cli import RunConfig, run  # noqa: E402
from test_golden import CONFIGS, GOLDEN, _tolerance  # noqa: E402


def _has_float(value) -> bool:
    if isinstance(value, dict):
        return any(map(_has_float, value.values()))
    if isinstance(value, list):
        return any(map(_has_float, value))
    return isinstance(value, float)


def moved(want, got, tol, where):
    """Yield ``(field, old, new)`` for each witness that differs and each float outside ``tol``."""
    rel, abs_ = tol
    if isinstance(want, float) and isinstance(got, float) and math.isfinite(want):
        if not abs(got - want) <= max(rel * abs(want), abs_):
            yield where, want, got
    elif isinstance(want, dict) and isinstance(got, dict) and list(want) == list(got):
        for key in want:
            yield from moved(want[key], got[key], tol, f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got) and _has_float(want):
        for i, (w, g) in enumerate(zip(want, got)):
            yield from moved(w, g, tol, f"{where}[{i}]")
    elif type(want) is not type(got) or repr(want) != repr(got):  # a witness point is one field
        yield where, want, got


def main(names: list[str]) -> int:
    goldens, refusals, lines = {}, [], []
    for name, options in CONFIGS.items():
        want = json.loads((GOLDEN / name).read_text())
        got = json.loads(json.dumps(run(RunConfig(command="all", seed=0, threads=1, **options)).body_without_timings()))
        got["config"].pop("out")
        for key in (want.keys() | got.keys()) - {"audits"}:
            if want.get(key) != got.get(key):
                refusals.append(f"{name}: {key} changed")
        ids = [a["audit_id"] for a in want["audits"]]
        if ids != [a["audit_id"] for a in got["audits"]]:
            refusals.append(f"{name}: the audit list changed")
            continue
        for w, g in zip(want["audits"], got["audits"]):
            for key in ("passed", "grid", "notes"):
                if w[key] != g[key]:
                    refusals.append(f"{w['audit_id']}: {key} changed: {w[key]!r} -> {g[key]!r}")
            for part in ("constants", "worst"):
                for field, old, new in moved(w[part], g[part], _tolerance(w["audit_id"]), f"{w['audit_id']}.{part}"):
                    lines.append(f"{field}: {json.dumps(old)} -> {json.dumps(new)}")
        goldens[name] = (want, got, ids)
    print("\n".join(lines or ["no witness or float outside TOLERANCES moved"]))
    unknown = set(names) - {i for _, _, ids in goldens.values() for i in ids}
    if refusals or unknown:
        print("\n".join(["refused, nothing written:", *refusals, *(f"{n}: no such audit" for n in sorted(unknown))]))
        return 1
    for name, (want, got, ids) in goldens.items():
        picked = [i for i, audit_id in enumerate(ids) if audit_id in names]
        if picked:
            for i in picked:
                want["audits"][i] = got["audits"][i]
            (GOLDEN / name).write_text(json.dumps(want, indent=2) + "\n")
            print(f"rewrote {', '.join(ids[i] for i in picked)} in {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
