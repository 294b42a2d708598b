"""Scale-invariant Harnack constants for harmonic functions on lattice balls.

The exact constant ``C(R)`` is the worst half-ball ratio over the extreme
rays of the nonnegative-harmonic cone — the boundary hitting kernels — and
one solve per ball, of one kernel per symmetry orbit of the boundary, gives
the supremum over all nonnegative harmonic functions.  Audits cover the
small-radius combinatorial bound, the chained amplification certificate for
large radii, and the oscillation decay that the constant implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .green import comparability_ratio
from .harmonic import dirichlet_solve, harmonic_measure_matrix
from .kernel import SolverError
from .lattice import FiniteDomain, Point, build_ball_chain, make_ball, radii
from .report import AuditReport
from .rng import philox

_MIXTURE_STREAM = 0x05C1  # stream tag for random boundary mixtures
DELTA_MIN = 0.05  # the oscillation gate: 1 - max Osc(half)/Osc(ball) >= DELTA_MIN
MIXTURES = 16  # random nonnegative kernel mixtures per radius
STABILITY_RATIO_CAP = 1.5  # the scale-stability gate on max / min C(R)
CLOSED_FORM_TOL = 1e-12  # the 1-d gate on |exact - closed form|
CLOSED_FORM_CAP = 3.0  # the 1-d gate on the largest exact constant, which must stay below it


@dataclass(frozen=True)
class HarnackRecord:
    """The exact half-ball Harnack constant of one ball with its witness."""

    d: int
    R: int
    constant: float
    witness_boundary: Point  # the least point of its symmetry orbit
    witness_max: Point
    witness_min: Point
    branch: str  # "small_R" (R <= 32) or "chained" (R > 32)


def hitting_kernels(d: int, R: int) -> tuple[FiniteDomain, np.ndarray, np.ndarray]:
    """B(0, R), one outer-boundary index per symmetry orbit, and their hitting kernels (rows interior).

    Each index is its orbit's representative (:meth:`FiniteDomain.representatives`),
    the orbit's lexicographically least point; a symmetry moves its kernel
    onto the kernel of any other point of the orbit.
    """
    D = make_ball((0,) * d, R)
    rep = D.representatives()[len(D) :] - len(D)  # each boundary point's orbit representative
    reps = np.flatnonzero(rep == np.arange(len(rep)))
    return D, reps, harmonic_measure_matrix(D, reps)


def harnack_constant_exact(d: int, R: int) -> HarnackRecord:
    """Exact C(R): worst half-ball ratio over all boundary hitting kernels.

    Every nonnegative harmonic function on the ball is a nonnegative
    combination of the kernels, and a ratio of positive linear functionals
    is maximized on an extreme ray, so the kernel maximum is the supremum
    over the whole cone.  A symmetry maps the half ball onto itself, so one
    kernel per orbit (:func:`hitting_kernels`) carries every ratio.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    D, reps, K = hitting_kernels(d, R)
    half = D.within(R // 2)
    sub = K[half, :]
    mins = sub.min(axis=0)
    if mins.min() <= 0.0:
        z = reps[int(mins.argmin())]
        raise SolverError(
            f"hitting kernel for boundary point {D.outer_boundary[z]} vanishes on "
            "the half ball; the solve is broken"
        )
    maxs = sub.max(axis=0)
    ratios = maxs / mins
    z = int(ratios.argmax())
    return HarnackRecord(
        d=d,
        R=R,
        constant=float(ratios[z]),
        witness_boundary=D.outer_boundary[reps[z]],
        witness_max=D.interior[half[int(sub[:, z].argmax())]],
        witness_min=D.interior[half[int(sub[:, z].argmin())]],
        branch="small_R" if R <= 32 else "chained",
    )


def d1_harnack_constant(R: int) -> float:
    """Closed form in one dimension: ``(R + 1 + floor(R/2)) / (R + 1 - floor(R/2))``.

    The kernels are the two gambler's-ruin lines ``(R + 1 ± x) / (2R + 2)``;
    on the half ball the extreme ratio is attained at ``x = ±floor(R/2)``.
    Always below 3.
    """
    S = R // 2
    return (R + 1 + S) / (R + 1 - S)


def small_r_bound_audit(d: int, r_values: Sequence[int]) -> AuditReport:
    """Check C(R) <= (2d)^32 on the small-radius grid (enormous slack expected).

    The combinatorial bound chains one-step inequalities ``h(x) >= h(y)/(2d)``
    along paths of length at most 2R <= 64, giving (2d)^32 after pairing.
    """
    r_values = radii(r_values)
    if max(r_values) > 32:
        raise ValueError("the combinatorial bound is audited for R <= 32 only")
    cap = float(2 * d) ** 32
    rows = []
    worst = None
    all_pass = True
    for R in r_values:
        rec = harnack_constant_exact(d, R)
        ok = rec.constant <= cap
        all_pass &= ok
        rows.append({"R": R, "C": rec.constant, "cap": cap, "ok": ok})
        if worst is None or rec.constant > worst["C"]:
            worst = {"R": R, "C": rec.constant, "witness_z": rec.witness_boundary}
    return AuditReport(
        audit_id=f"ehi.small_r.d{d}",
        grid={"d": d, "R": r_values},
        constants={"cap": cap},
        worst=worst,
        passed=bool(all_pass),
        notes=["cap (2d)^32 from chained one-step bounds at radius <= 32"],
        rows=rows,
    )


def chained_harnack_audit(d: int, r_values: Sequence[int]) -> AuditReport:
    """Certify large-R constants by comparability amplification along a chain.

    kappa bounds the half-ball kernel ratio of the radius-R/2 sub-balls
    (measured Green-column comparability on the quarter ball); a diametric
    half-ball pair is joined by N overlapping sub-balls, so the proof's own
    bound C(R) <= kappa^N must dominate the exact constant.
    """
    r_values = radii(r_values)
    if min(r_values) <= 32:
        raise ValueError("the chained certificate targets R > 32")
    rows = []
    worst = None
    all_pass = True
    for R in r_values:
        kappa = comparability_ratio(d, R // 2)
        u = (-(R // 2),) + (0,) * (d - 1)
        v = (R // 2,) + (0,) * (d - 1)
        chain = build_ball_chain((0,) * d, R, u, v)
        N = chain.n_balls
        certified = kappa**N
        rec = harnack_constant_exact(d, R)
        ok = rec.constant <= certified
        all_pass &= ok
        margin = certified / rec.constant
        rows.append(
            {
                "R": R,
                "C": rec.constant,
                "kappa": kappa,
                "N": N,
                "certified": certified,
                "margin": margin,
                "ok": ok,
            }
        )
        if worst is None or margin < worst["margin"]:
            worst = {"R": R, "C": rec.constant, "certified": certified, "margin": margin}
    return AuditReport(
        audit_id=f"ehi.chained.d{d}",
        grid={"d": d, "R": r_values},
        constants={},
        worst=worst,
        passed=bool(all_pass),
        notes=[
            "kappa = measured Green-column comparability on the quarter ball",
            "N = overlapping sub-balls joining a diametric half-ball pair",
        ],
        rows=rows,
    )


def oscillation_audit(d: int, r_values: Sequence[int], seed: int) -> AuditReport:
    """Oscillation decay: the half-ball swing shrinks by a uniform factor.

    For every hitting kernel (and ``MIXTURES`` seeded random nonnegative
    mixtures), the ratio Osc(half ball) / Osc(ball) is below
    ``1 - DELTA_MIN``; constant inputs (zero oscillation) are excluded.  One
    kernel per orbit carries every ratio, as in :func:`harnack_constant_exact`.
    """
    r_values = radii(r_values)
    rng = philox(seed, stream=_MIXTURE_STREAM)
    rows = []
    worst = None
    all_pass = True
    for R in r_values:
        D, _, K = hitting_kernels(d, R)
        half = D.within(R // 2)
        mix = rng.uniform(0.0, 1.0, size=(len(D.outer_coords), MIXTURES))
        values = np.hstack([K, dirichlet_solve(D, mix)[: len(D)]])
        osc_full = values.max(axis=0) - values.min(axis=0)
        osc_half = values[half, :].max(axis=0) - values[half, :].min(axis=0)
        keep = osc_full > 0
        worst_ratio = float((osc_half[keep] / osc_full[keep]).max(initial=0.0))
        delta = 1.0 - worst_ratio
        ok = delta >= DELTA_MIN
        all_pass &= ok
        rows.append({"R": R, "delta": delta, "worst_ratio": worst_ratio, "ok": ok})
        if worst is None or delta < worst["delta"]:
            worst = {"R": R, "delta": delta}
    return AuditReport(
        audit_id=f"ehi.oscillation.d{d}",
        grid={"d": d, "R": r_values, "delta_min": DELTA_MIN, "mixtures": MIXTURES, "seed": seed},
        constants={},
        worst=worst,
        passed=bool(all_pass),
        notes=["delta = 1 - max Osc(half)/Osc(ball) over kernels and mixtures"],
        rows=rows,
    )


def stability_audit(d: int, r_values: Sequence[int]) -> AuditReport:
    """Exact Harnack constants across radii must be scale-stable.

    The constant is expected to converge as the radius grows; the audit
    gates the max/min ratio over the grid by ``STABILITY_RATIO_CAP``.
    """
    records = [harnack_constant_exact(d, R) for R in radii(r_values)]
    consts = [rec.constant for rec in records]
    ratio = max(consts) / min(consts)
    rows = [
        {"R": rec.R, "constant": rec.constant, "branch": rec.branch}
        for rec in records
    ]
    return AuditReport(
        audit_id=f"ehi.stability.d{d}",
        grid={"d": d, "radii": [rec.R for rec in records]},
        constants={
            "min_constant": min(consts),
            "max_constant": max(consts),
            "ratio": ratio,
            "ratio_cap": STABILITY_RATIO_CAP,
        },
        worst={"R": records[consts.index(max(consts))].R, "constant": max(consts)},
        passed=ratio <= STABILITY_RATIO_CAP,
        rows=rows,
    )


def d1_closed_form_audit(r_max: int) -> AuditReport:
    """Every 1-d exact constant must match the gambler's-ruin closed form.

    In one dimension harmonic functions are affine, so the constant is the
    explicit ratio ``(R+1+floor(R/2)) / (R+1-floor(R/2))``, strictly below 3;
    the gap must stay within ``CLOSED_FORM_TOL`` and every constant below
    ``CLOSED_FORM_CAP``.
    """
    worst_gap = -1.0
    worst = None
    max_const = -math.inf
    rows = []
    for R in radii(range(1, r_max + 1)):
        exact = harnack_constant_exact(1, R).constant
        formula = d1_harnack_constant(R)
        gap = abs(exact - formula)
        max_const = max(max_const, exact)
        if gap > worst_gap:
            worst_gap = gap
            worst = {"R": R, "gap": gap}
        rows.append({"R": R, "exact": exact, "closed_form": formula, "gap": gap})
    passed = worst_gap <= CLOSED_FORM_TOL and max_const < CLOSED_FORM_CAP
    return AuditReport(
        audit_id="ehi.closed_form.d1",
        grid={"d": 1, "r_max": r_max},
        constants={"max_gap": worst_gap, "max_constant": max_const, "tol": CLOSED_FORM_TOL},
        worst=worst,
        passed=passed,
        notes=[f"also gates max constant < {CLOSED_FORM_CAP:g}"],
        rows=rows,
    )
