"""Planted faults: a wrong layer fails the audits that watch it.

Each row patches one layer (two for the anisotropic walk), runs
``harnack all`` in-process with ``--seed 0 --threads 1`` on fresh
free-field, killed-matrix and factor memos, and names audits that must
fail, on the smallest config that showed them.  A row does not claim that
the other audits pass: an audit missing from it may be blind to that fault.
"""

import numpy as np
import pytest

from harnack import exit_time, harmonic, kernel
from harnack.cli import RunConfig, run


def _leaking(eps):
    """A matrix layer that loses ``eps`` of its mass: the walk's ``P^D`` (and so the ``I - P^D`` read off it), or its exit block."""
    return lambda build: lambda *args: build(*args) * (1.0 - eps)


def _anisotropic_walk(eps):
    """Steps along axis 0 weigh ``1 + eps`` times more and along axis 1 ``1 - eps`` times, in ``P^D`` and in the exit block.

    ``P^D`` stays symmetric, and every row of the whole walk (``P^D`` and
    exit block together) keeps its mass.
    """

    def walk(build):
        def anisotropic(D):
            P = build(D)
            rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
            axis = np.argmax(D.coords[rows] != D.coords[P.indices], axis=1)
            P.data *= np.select([axis == 0, axis == 1], [1.0 + eps, 1.0 - eps], 1.0)
            return P

        return anisotropic

    def coupling(D, phi):
        weights = np.repeat(([1.0 + eps, 1.0 - eps] + [1.0] * D.dimension)[: D.dimension], 2)  # neighbour order: -e_0, +e_0, -e_1, ...
        out = np.zeros((len(D),) + np.shape(phi)[1:])
        for step, w in zip(D.neighbor_index.T, weights):
            rows = np.flatnonzero(step >= len(D))
            out[rows] += w / (2 * D.dimension) * phi[step[rows] - len(D)]
        return out

    return {WALK: walk, EXIT_BLOCK: lambda _: coupling}


def _leaking_dp(eps):
    """Each orthant DP step loses ``eps`` of its mass."""
    return lambda step: lambda arr, d: step(arr, d) * (1.0 - eps)


def _holding_walker(hold):
    """The Monte Carlo walker holds with probability ``hold`` at each step.

    A hold moves no exit point, only its time: before its n-th move the
    walker holds a negative binomial ``NB(n, 1 - hold)`` number of steps, so
    each exit at move n is reported that many steps later, if within the cap.
    """

    def plant(walks):
        def faulty(D, x, samples, seed, stream, step_cap):
            rng, late = np.random.default_rng(seed), {}
            for n, exits in walks(D, x, samples, seed, stream, step_cap):
                at = n + rng.negative_binomial(n, 1.0 - hold, size=exits.size)
                for k in np.unique(at[at <= step_cap]).tolist():
                    late.setdefault(k, []).append(exits[at == k])
            for k in sorted(late):
                yield k, np.concatenate(late[k])

        return faulty

    return plant


def _late_exits(walks):
    """The Monte Carlo walker reports each exit one step after it happened."""
    return lambda D, x, samples, seed, stream, step_cap: (
        (n + 1, exits) for n, exits in walks(D, x, samples, seed, stream, step_cap) if n < step_cap
    )


D1, D2 = dict(dim=1, r_max=4), dict(dim=2, r_max=4)
WALK, EXIT_BLOCK, ORTHANT_DP, WALKER = (
    (kernel, "_walk_operator"),
    (harmonic, "exit_coupling"),
    (kernel, "_orthant_step"),
    (exit_time, "exit_walks"),
)
# fault -> ({(module, name): wrapper of the original}, `all` options, audits that must fail)
FAULTS = {
    "the walk leaks 1e-9 per step": (
        {WALK: _leaking(1e-9)},
        dict(dim=2, r_max=8),
        {"exit.chernoff.d2", "exit.mc.d2", "balayage.batch.d2"},
    ),
    "the walk leaks 1e-3 per step": (
        {WALK: _leaking(1e-3)},
        D1,
        {"exit.chernoff.d1", "exit.mc.d1", "balayage.batch.d1", "dirichlet.triple.d1", "ehi.closed_form.d1"},
    ),
    "the walk is anisotropic by 1e-6, mass kept": (
        _anisotropic_walk(1e-6),
        D2,
        {"green.equivalence.d2", "balayage.batch.d2"},
    ),
    "the orthant DP leaks 1e-14 per step": ({ORTHANT_DP: _leaking_dp(1e-14)}, D1, {"kernel.exactness.d1"}),
    "the orthant DP leaks 1e-10 per step": (
        {ORTHANT_DP: _leaking_dp(1e-10)},
        D2,
        {"kernel.exactness.d2", "kernel.projection.d2"},
    ),
    "the walker holds with probability 1%": ({WALKER: _holding_walker(0.01)}, D1, {"exit.mc.d1"}),
    "the walker's exits are counted one step late": ({WALKER: _late_exits}, D1, {"exit.mc.d1"}),
    # Only the balayage batch sees this: dirichlet.triple's solve, iteration
    # and measure routes all read the exit block, and its Monte Carlo route
    # resolves only about 1e-3.
    "the exit block leaks 1e-9": ({EXIT_BLOCK: _leaking(1e-9)}, D1, {"balayage.batch.d1"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_planted_fault_fails_its_audits(fault, monkeypatch):
    plants, options, failing = FAULTS[fault]
    for memo in ("_FREE", "_KILLED", "_LU"):
        monkeypatch.setattr(kernel, memo, kernel.Memo())
    for (module, name), plant in plants.items():
        monkeypatch.setattr(module, name, plant(getattr(module, name)))
    report = run(RunConfig(command="all", seed=0, threads=1, **options))
    assert failing <= {a.audit_id for a in report.audits if not a.passed}
