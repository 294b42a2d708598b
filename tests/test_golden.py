"""Golden report bodies: refactors keep every verdict, witness and constant.

``tests/golden/`` holds the report bodies (no ``timings``, no echoed ``out``)
of the ``harnack`` configurations below, run with ``--seed 0 --threads 1``.
This test reruns them in-process and requires identical configs, verdicts,
grids, notes and witnesses; floats are compared within the per-audit
tolerance below.  Tolerances may be tightened, never loosened.  Every audit
id the CLI can run in d = 1, 2 and 3 is in some golden.
"""

import inspect
import itertools
import json
import math
import re
from pathlib import Path

import pytest

from harnack import cli
from harnack.cli import RunConfig, run

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "all-d1.json": dict(command="all", dim=1),
    "all-d2-r8.json": dict(command="all", dim=2, r_max=8),
    "all-d3-r4-n16.json": dict(command="all", dim=3, r_max=4, n_max=16),
    # the shipped radii: d=2 up to R = 16, d=3 up to R = 8 and up to R = 16 (the only balayage
    # batch on the 6,017-point ball), and ehi.chained.d2
    "all-d2.json": dict(command="all", dim=2),
    "all-d3-r8.json": dict(command="all", dim=3, r_max=8),
    "all-d3.json": dict(command="all", dim=3),
    "ehi-d2-r64.json": dict(command="ehi", dim=2, r_max=64),
}

# audit id prefix -> (relative, absolute) tolerance; the first matching prefix
# applies to every float of the audit's constants and witness.
TOLERANCES = {
    # round-off measure against a 1e-12 gate: the value itself is noise
    "kernel.exactness": (0.0, 1e-14),
    # round-off measure against a 1e-12 gate
    "kernel.projection": (0.0, 1e-14),
    # envelope constants fitted from the exact DP and closed-form kernels
    "bounds.": (1e-12, 0.0),
    # exact exit CDFs and seeded Monte Carlo counts: fitted ratios, relative
    "exit.": (1e-12, 0.0),
    # series-vs-solve gap is round-off against a 1e-8 gate
    "green.equivalence": (0.0, 1e-11),
    # fitted constants read off residual-certified sparse LU Green tables
    "green.": (1e-10, 0.0),
    # solve/iterate and measure gaps are round-off (gates 1e-8, 1e-10); z and se relative
    "dirichlet.triple": (1e-9, 1e-12),
    # reconstruction error and min charge are round-off (gates 1e-8, -1e-12)
    "balayage.batch": (0.0, 1e-13),
    # closed-form gap is round-off against a 1e-12 gate
    "ehi.closed_form": (1e-12, 1e-14),
    # exact Harnack constants are ratios of LU hitting probabilities
    "ehi.": (1e-10, 0.0),
}


def _tolerance(audit_id):
    for prefix, tol in TOLERANCES.items():
        if audit_id.startswith(prefix):
            return tol
    raise AssertionError(f"no golden tolerance for {audit_id}")


def _compare(got, want, tol, where):
    rel, abs_ = tol
    if isinstance(want, float) and isinstance(got, float):
        if math.isinf(want) or math.isnan(want):
            assert repr(got) == repr(want), where
        else:
            assert abs(got - want) <= max(rel * abs(want), abs_), f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _compare(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{where}[{i}]")
    else:
        # verdicts, witness points, grid radii and step counts: identical
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_body_matches_golden(name):
    want = json.loads((GOLDEN / name).read_text())
    cfg = RunConfig(seed=0, threads=1, **CONFIGS[name])
    got = json.loads(json.dumps(run(cfg).body_without_timings()))
    got["config"].pop("out")
    assert got["config"] == want["config"]
    assert got["passed"] == want["passed"]
    assert [a["audit_id"] for a in got["audits"]] == [a["audit_id"] for a in want["audits"]]
    for g, w in zip(got["audits"], want["audits"]):
        aid = w["audit_id"]
        assert g["passed"] == w["passed"], aid
        assert g["grid"] == w["grid"], aid
        assert g["notes"] == w["notes"], aid
        tol = _tolerance(aid)
        _compare(g["constants"], w["constants"], tol, aid + ".constants")
        _compare(g["worst"], w["worst"], tol, aid + ".worst")


def _runnable_audit_ids(monkeypatch):
    """Every audit id ``cli._tasks_for`` can produce in d = 1, 2, 3, found without running an audit.

    Each task is one call ``module.audit(dim, ...)``: the call is replaced by a
    stub that returns its arguments, and the id is the audit's ``audit_id``
    template with ``{d}`` set to the first of them.
    """
    ids = set()
    for d, r_max in itertools.product((1, 2, 3), (4, 8, 16, 32, 64)):
        for task in cli._tasks_for(RunConfig(command="all", dim=d, r_max=r_max)):
            module = next(c.cell_contents for c in task.__closure__ if inspect.ismodule(c.cell_contents))
            name = task.__code__.co_names[0]
            template = re.search(r'audit_id=f?"(.+?)"', inspect.getsource(getattr(module, name))).group(1)
            with monkeypatch.context() as patch:
                patch.setattr(module, name, lambda *args, **kwargs: args)
                ids.add(template.replace("{d}", str(task()[0])))
    return ids


def test_every_runnable_audit_has_a_golden(monkeypatch):
    golden = {a["audit_id"] for name in CONFIGS for a in json.loads((GOLDEN / name).read_text())["audits"]}
    runnable = _runnable_audit_ids(monkeypatch)
    assert "ehi.chained.d2" in runnable and "kernel.projection.d2" in runnable
    assert runnable - golden == set()
