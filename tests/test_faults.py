"""Planted faults: a wrong layer fails the audits that watch it.

Each row patches one layer, runs ``harnack all`` in-process with
``--seed 0 --threads 1`` on fresh killed-matrix and factor memos, and names
audits that must fail.  A row does not claim that the other audits pass:
an audit missing from it may be blind to that fault.
"""

import pytest

from harnack import kernel
from harnack.cli import RunConfig, run


def _leaking_walk(build):
    """The walk loses 1e-9 of its mass per step, in ``P^D`` and so in the ``I - P^D`` read off it."""
    return lambda D: build(D) * (1.0 - 1e-9)


# fault -> (module, name, wrapper of the original, `all` options, audits that must fail)
FAULTS = {
    "the walk leaks 1e-9 per step": (
        kernel,
        "_walk_operator",
        _leaking_walk,
        dict(dim=2, r_max=8),
        {"exit.chernoff.d2", "exit.mc.d2", "balayage.batch.d2"},
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_planted_fault_fails_its_audits(fault, monkeypatch):
    module, name, plant, options, failing = FAULTS[fault]
    monkeypatch.setattr(kernel, "_KILLED", kernel.Memo())
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    report = run(RunConfig(command="all", seed=0, threads=1, **options))
    assert failing <= {a.audit_id for a in report.audits if not a.passed}
