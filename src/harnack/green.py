"""Green functions of the walk killed outside a ball, by two independent routes.

The Green function of a ball ``B`` is ``g_B(x, y) = sum_n p_n^B(x, y)``: the
expected number of visits to ``y`` before exiting, started at ``x``.  Two
mandatory, independent computations are provided and cross-audited:

``series``
    accumulates the killed kernels directly for one start per orbit of the
    domain's lattice symmetries (signed coordinate permutations about its
    centre; ``g_B(gx, gy) = g_B(x, y)`` exactly), in one walk with one
    sparse product per step (each column carries an even and an odd start,
    whose masses live on opposite parity classes: the walk is bipartite),
    with an adaptive truncation per start: once the per-step survival ratio
    stabilises below one, the remaining tail is bounded geometrically by
    ``s_N * lam/(1 - lam)``.  Because the chain is bipartite, survival
    ratios oscillate with period two; the estimator takes the max of the
    last two consecutive ratios, which dominates both phases.  It is
    checked on each window end's last two steps, one of each phase, and
    iteration stops at the first window end (``_WINDOW`` steps) where every
    walked start's bound is below ``tol``.  Every other column is gathered
    as the exact image of its representative's.

``solve``
    solves the defining linear system ``(I - P^B) G = I`` with
    ``kernel.killed_solve``, the package's one factorization and certified
    solve: a sparse LU factorisation (deterministic, single-threaded,
    memoized per ball and shared with the Dirichlet solves, harmonic
    measures and balayage on that ball) whose result must satisfy
    ``max |G - P^B G - I| < kernel.RESIDUAL_TOL``.  SuperLU factors the
    M-matrix ``I - P^B`` without pivoting, in a symmetric order, so every
    pivot is positive and every off-diagonal factor entry nonpositive:
    back-substitution adds nonnegative terms only and even the exponentially
    small entries come out componentwise accurate.

Audits on top of the tables: interior two-sided comparisons of ``g`` against
``r^{2-d}`` (or ``log(R/r)`` in d=2), a killed near-diagonal Gaussian lower
fit (the log-space envelope routine of ``bounds``, fed the exact paired sums
of ``bounds._paired``), and the pole-ratio comparability measurement used by
the chained Harnack certificate.  Each takes one column, start or pole per
symmetry orbit; a witness is the canonical pair, its least image over the
maps and the swap (``g_B`` and ``p_n^B`` are symmetric).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import _DECAY_GRID, _EnvelopeFit, _paired, _shell_extremes
from .kernel import iter_killed_vectors, killed_solve, walk_columns
from .lattice import FiniteDomain, make_ball, radii
from .report import AuditReport

_WINDOW = 64  # the series is certified, and stops, only every this many steps
SERIES_MAX_STEPS = 200_000  # 3125 windows: the series stops here, truncated, if a tail is still uncertified
UGI_RATIO_CAP = 10.0  # the interior comparison's gate on G2 / G1 at each R
STABILITY_CAP = 3.0  # the pole-ratio gate on max / min ratio across R

__all__ = [
    "GreenTable",
    "green_table_series",
    "green_solve",
    "ugi_audit",
    "killed_lower_audit",
    "comparability_audit",
    "comparability_ratio",
]


@dataclass
class GreenTable:
    """The series' Green values over a domain's interior index, and how the series stopped.

    ``values[i, j] = g_B(interior[i], interior[j])``.
    """

    values: np.ndarray
    meta: dict


def green_table_series(B: FiniteDomain, tol: float) -> GreenTable:
    """Full Green table by series accumulation over one start per symmetry orbit.

    The domain's lattice symmetries (:meth:`FiniteDomain.symmetries`) satisfy
    ``g_B(gx, gy) = g_B(x, y)`` exactly, so only each orbit's representative,
    its smallest interior index, is walked.  The representatives advance in
    one ``iter_killed_vectors`` walk, one sparse product per step, even and
    odd ones paired in its columns (``walk_columns``), and each step's block
    is added to the accumulator of its step parity; each walked column holds
    the same sums as when every start is walked.  Each start's mass is read
    off one product with a 2 x |B| class-sum matrix, which adds its live
    class in index order, as a full-interior column sum does.  Each
    representative certifies its own tail (staircase columns reach their
    drop steps at different times).  Masses are read on each
    ``_WINDOW``-step window's last four steps only; at its end a start not
    yet certified takes the first of the last two steps whose tail bound is
    below ``tol``, and iteration ends at the first window end where every
    representative is certified, so an untruncated series sums a multiple
    of ``_WINDOW`` steps.  Every other column is then gathered as an image
    of its representative's, ``G[:, j] = G[h x, r]`` for a map h taking j
    to r.  Without symmetry every start is a representative.
    ``ValueError`` unless ``tol`` is positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    maps = B.symmetries()[:, : len(B)]  # the interior block
    rep = B.representatives()[: len(B)]
    reps = np.flatnonzero(rep == np.arange(len(B)))
    column = walk_columns(B, reps)  # the walk's column of each representative
    parity = B.coords.sum(axis=1) % 2
    # row c adds class c's rows in ascending order, one term at a time
    class_sums = sp.csr_matrix((np.ones(len(B)), (parity, np.arange(len(B)))), shape=(2, len(B)))
    totals = [np.zeros((len(B), column.max() + 1)) for _ in (0, 1)]  # sums over the even and the odd steps
    tail_bounds = np.full(len(reps), np.inf)  # per representative; finite once certified
    masses = deque(maxlen=4)  # each start's mass on steps n - 3..n at a window end n
    for n, block in iter_killed_vectors(B, reps, SERIES_MAX_STEPS):
        totals[n % 2] += block
        if n == 0 or -n % _WINDOW > 3:
            continue  # step 0 is accumulated, not certified; masses are read on a window's last four steps
        # each start's mass, on its live class: class c + n for starts of class c
        masses.append((class_sums @ block)[(parity[reps] + n) % 2, column])
        if n % _WINDOW:
            continue
        # certify the window's last two steps, n - 1 and n, on (step, start) arrays
        history = np.array(masses)
        s, s_prev, s_prev2 = history[2:], history[1:-1], history[:-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(s_prev > 0, s / s_prev, 0.0)
            rho = np.where(s_prev2 > 0, s / s_prev2, np.inf)
            one_step = np.where(lam < 1.0, s * lam / (1.0 - lam), np.inf)
            two_step = np.where(rho < 1.0, (s + s_prev) * rho / (1.0 - rho), np.inf)
        tails = np.where(s > 0, np.maximum(one_step, two_step), 0.0)
        below = (tails < tol) & np.isinf(tail_bounds)
        first = np.argmax(below, axis=0)  # each start's first certified step
        newly = below.any(axis=0)
        tail_bounds[newly] = tails[first[newly], np.flatnonzero(newly)]
        if np.isfinite(tail_bounds).all():
            break
    table = np.zeros((len(B), len(B)))
    for p, total in enumerate(totals):  # starts of class c hold class c + p after p-parity steps
        for c in (0, 1):
            own = parity[reps] == c
            live = np.flatnonzero(parity == (c + p) % 2)
            table[np.ix_(live, reps[own])] = total[np.ix_(live, column[own])]
    # map h takes column j to its representative; the identity (row 0) keeps
    # the representatives, every other map fills its columns by one gather
    image_of = np.argmax(maps == rep, axis=0)
    for h in np.unique(image_of[image_of > 0]):
        cols = np.flatnonzero(image_of == h)
        table[:, cols] = table[np.ix_(maps[h], rep[cols])]
    meta = {
        "terms": n,
        "tail_bound": float(tail_bounds.max()),  # inf if any start is uncertified
        "truncated": bool(np.isinf(tail_bounds).any()),
    }
    return GreenTable(values=table, meta=meta)


def green_solve(B: FiniteDomain, columns: Sequence[int] | None = None) -> np.ndarray:
    """Green table by solving ``(I - P^B) G = I`` (``kernel.killed_solve``, certified).

    Returns ``G[i, k] = g_B(interior[i], interior[columns[k]])``, of shape
    ``(|B|, k)``; ``columns`` defaults to every interior index.  Every
    call solves afresh; a ball's factor is the one kept in the bounded memo,
    so repeated solves on a ball return the same values.
    """
    columns = B.interior_indices(np.arange(len(B)) if columns is None else columns)
    rhs = np.zeros((len(B), len(columns)))
    rhs[columns, np.arange(len(columns))] = 1.0
    return killed_solve(B, rhs)


def _pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) l1 distance matrix between two coordinate arrays."""
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)


def _canonical_pair(B: FiniteDomain, i: int, j: int) -> list:
    """The lesser canonical image of the interior pairs (i, j) and (j, i), as points."""
    return [B.interior[k] for k in min(B.canonical((i, j)), B.canonical((j, i)))]


def ugi_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Two-sided interior comparison of ``g_B`` against its scale function.

    For points ``x, y`` in the half ball with ``r = max(1, dist(x,y))``
    restricted to ``r <= R/2``, the audit fits the extrema of
    ``g * r^{d-2}`` (d >= 3) or of ``g / log(R/r)`` (d = 2).  Pass requires
    ``0 < G1 <= G2``, ``G2/G1 <= UGI_RATIO_CAP`` at every R, and a common value
    inside every fitted window across R, with one ``y`` per orbit and pairs
    reported canonical.  ``ValueError`` below R = 2, where no pair is compared.
    """
    if d < 2:
        raise ValueError("the interior Green comparison is defined for d >= 2")
    r_values = radii(r_values)
    if r_values[0] < 2:
        raise ValueError(f"the interior Green comparison needs R >= 2, not R = {r_values[0]}")
    rows, worst, all_pass = [], None, True
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        reps = half[B.representatives()[half] == half]
        r = np.maximum(_pair_distances(B.coords[half], B.coords[reps]), 1)
        i, j = np.nonzero(r <= R / 2)  # the compared (half-ball point, column) pairs
        g, r = green_solve(B, columns=reps)[half[i], j], r[i, j]
        vals = g / np.log(R / r) if d == 2 else g * r.astype(float) ** (d - 2)
        lo_k, hi_k = int(vals.argmin()), int(vals.argmax())
        g1, g2 = float(vals[lo_k]), float(vals[hi_k])
        ratio = g2 / g1 if g1 > 0 else math.inf
        all_pass &= g1 > 0 and math.isfinite(g2) and ratio <= UGI_RATIO_CAP
        rows.append({"R": R, "G1": g1, "G2": g2, "ratio": ratio})
        if worst is None or ratio > worst["ratio"]:
            lo_pair, hi_pair = (_canonical_pair(B, half[i[k]], reps[j[k]]) for k in (lo_k, hi_k))
            worst = {"R": R, "ratio": ratio, "min_pair": lo_pair, "max_pair": hi_pair}
    lo, hi = max(row["G1"] for row in rows), min(row["G2"] for row in rows)
    overlap = lo <= hi
    return AuditReport(
        audit_id=f"green.ugi.d{d}",
        grid={"d": d, "R": r_values, "ratio_cap": UGI_RATIO_CAP},
        constants={
            "G1": {str(row["R"]): row["G1"] for row in rows},
            "G2": {str(row["R"]): row["G2"] for row in rows},
            "window_intersection": [lo, hi] if overlap else None,
        },
        worst=worst,
        passed=bool(all_pass and overlap),
        notes=[f"scale function: {'g/log(R/r)' if d == 2 else 'g*r^(d-2)'}, pairs restricted to r <= R/2"],
        rows=rows,
    )


def killed_lower_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Fit a Gaussian lower envelope to the *killed* parity-paired kernel.

    For each R, over interior points ``x, y`` of the half ball and times
    ``max(1, dist) <= n <= R^2``, fits ``(A, C)`` with

        ``p_n^B(x,y) + p_{n+1}^B(x,y) >= A * n^{-d/2} * exp(-C * dist^2 / n)``

    by scanning ``C`` over the log grid ``bounds._DECAY_GRID`` and taking the
    minimum-implied amplitude; the reported pair maximises the amplitude
    margin.  Pass iff ``A > 0``.

    One start per symmetry orbit of the half ball advances in one walk, even
    and odd starts paired in its columns, and the log-space fit is the envelope
    routine of ``bounds``.  Each step's (start, target) block reads a start's
    column only on targets at a distance of n's parity and holds an exact
    zero elsewhere, where ``p_n^B`` is zero because the walk is bipartite (the
    column's other entries carry its partner start).  So ``bounds._paired``
    adds each pair exactly, one live term and one zero per entry, and each
    pair is reduced once to one minimum per shell.  Ties go to the smallest
    m, then distance, then kernel value, then the first (start, target) in
    half-ball order, and the witness is that pair's canonical image.
    """
    grid = _DECAY_GRID
    r_values = radii(r_values)
    rows, worst, all_pass = [], None, True
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        starts = half[B.representatives()[half] == half]
        dist = _pair_distances(B.coords[starts], B.coords[half])
        shells = [np.flatnonzero(dist == r) for r in range(dist.max() + 1)]  # row-major (start, target)
        column = walk_columns(B, starts)
        live = [dist % 2 == p for p in (0, 1)]  # per parity of n: the pairs a start's column holds
        kernels = (
            (n, np.where(live[n % 2], block[half][:, column].T, 0.0))
            for n, block in iter_killed_vectors(B, starts, R * R + 1)
        )
        fit = _EnvelopeFit(d, grid, lower=True)
        for m, pair in _paired(kernels):

            def witness(r: int) -> tuple:
                k = shells[r][int(np.argmin(pair.take(shells[r])))]
                return starts[k // len(half)], half[k % len(half)], m

            fit.fold(_shell_extremes(pair, dist, lower=True)[: m + 1], m, witness)
        amp = np.exp(fit.log_amp)
        best = int(np.argmax(amp))
        a_hat, c_hat = float(amp[best]), float(grid[best])
        all_pass &= a_hat > 0
        rows.append({"R": R, "A": a_hat, "C": c_hat})
        if worst is None or a_hat < worst["A"]:
            *ends, n = fit.witness[best]
            x, y = _canonical_pair(B, *ends)
            worst = {"A": a_hat, "C": c_hat, "R": R, "x": x, "y": y, "n": n}
    return AuditReport(
        audit_id=f"green.killed_lower.d{d}",
        grid={"d": d, "R": r_values, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"fits": rows},
        worst=worst,
        passed=bool(all_pass),
        rows=rows,
    )


def comparability_ratio(d: int, R: int) -> float:
    """Measured pole-ratio constant of ``B(0, R)``; ``ValueError`` below R = 4 (a one-point quarter ball).

    The maximum, over one pole ``y`` per symmetry orbit of the half ball's inner boundary and
    points ``x1, x2`` in the quarter ball, of ``g_B(x1, y) / g_B(x2, y)``: the per-step
    constant the chained Harnack certificate raises to the chain length.
    """
    if R < 4:
        raise ValueError(f"the pole ratio needs R >= 4, not R = {R}")
    B = make_ball((0,) * d, R)
    quarter = B.within(R // 4)
    poles = np.flatnonzero(B.inner_mask(B.within(R // 2)))
    poles = poles[B.representatives()[poles] == poles]
    g = green_solve(B, columns=poles)[quarter, :]
    return float((g.max(axis=0) / g.min(axis=0)).max())


def comparability_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Measure the pole-ratio constant per R and check cross-R stability (``STABILITY_CAP``)."""
    r_values = radii(r_values)
    rows = [{"R": R, "ratio": comparability_ratio(d, R)} for R in r_values]
    ratios = [row["ratio"] for row in rows]
    stable = max(ratios) / min(ratios) <= STABILITY_CAP
    ok = all(math.isfinite(r) and r >= 1.0 for r in ratios) and stable
    return AuditReport(
        audit_id=f"green.comparability.d{d}",
        grid={"d": d, "R": r_values, "stability_cap": STABILITY_CAP},
        constants={"ratios": {str(row["R"]): row["ratio"] for row in rows}},
        worst={"max_ratio": max(ratios)},
        passed=bool(ok),
        notes=["measured constant reported; no symbolic form asserted"],
        rows=rows,
    )


def equivalence_audit(d: int, r_values: Sequence[int], rel_tol: float) -> AuditReport:
    """Cross-check the two Green routes entry-by-entry on centred balls.

    For each radius the direct linear solve (residual-certified) and the
    series accumulation (per-start certified geometric tails) must agree
    within ``rel_tol`` relatively on *every* entry; the table must also be
    symmetric to the same tolerance, since the walk's one-step kernel is.
    The series stopping tolerance is self-scaled to the smallest solve entry
    so the relative gate is meaningful across the whole table.
    """
    r_values = radii(r_values)
    rows = []
    worst = None
    worst_rel = -1.0
    all_ok = True
    for R in r_values:
        B = make_ball((0,) * d, R)
        solved = green_solve(B)
        min_entry = float(solved.min())
        series = green_table_series(B, tol=0.01 * rel_tol * min_entry)
        gap = np.abs(series.values - solved)
        rel = float(gap.max() / min_entry)
        rel_entry = float((gap / solved).max())
        asym = float(np.abs(solved - solved.T).max() / min_entry)
        ok = (
            rel_entry <= rel_tol
            and asym <= rel_tol
            and not series.meta["truncated"]
        )
        all_ok = all_ok and ok
        if rel_entry > worst_rel:
            worst_rel = rel_entry
            worst = {"R": R, "rel_error": rel_entry}
        rows.append(
            {
                "R": R,
                "max_rel_error": rel_entry,
                "max_rel_error_vs_min": rel,
                "asymmetry": asym,
                "series_terms": series.meta["terms"],
                "min_entry": min_entry,
                "ok": ok,
            }
        )
    return AuditReport(
        audit_id=f"green.equivalence.d{d}",
        grid={"d": d, "radii": r_values},
        constants={"max_rel_error": worst_rel, "rel_tol": rel_tol},
        worst=worst,
        passed=all_ok,
        notes=["series stop tolerance = 1e-2 * rel_tol * (smallest solve entry)"],
        rows=rows,
    )
