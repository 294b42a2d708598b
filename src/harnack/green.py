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
    ``s_N * lam/(1 - lam)`` and iteration stops when every walked start's
    certified bound is below ``tol``.  Because the chain is bipartite,
    survival ratios oscillate with period two; the estimator takes the max
    of the last two consecutive ratios, which dominates both phases.  Every
    other column is gathered as the exact image of its representative's.

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
fit (the log-space envelope routine of ``bounds``, fed each step's live
parity block), and the pole-ratio comparability measurement used by the
chained Harnack certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import _DECAY_GRID, _EnvelopeFit, _pair_shells, _shell_extremes
from .kernel import iter_killed_vectors, killed_matrix, killed_solve, parity_classes
from .lattice import FiniteDomain, make_ball
from .report import AuditReport

_WINDOW = 64  # series steps pulled and certified together
SERIES_MAX_STEPS = 200_000  # the series stops here, truncated, if a tail is still uncertified
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
    """Green values over a domain's interior index.

    ``values[i, j] = g_B(interior[i], interior[j])`` for a full table; a
    column-restricted solve holds one column per requested index, in order.
    """

    values: np.ndarray
    meta: dict = field(default_factory=dict)


def green_table_series(B: FiniteDomain, tol: float) -> GreenTable:
    """Full Green table by series accumulation over one start per symmetry orbit.

    The domain's lattice symmetries (:meth:`FiniteDomain.symmetries`) satisfy
    ``g_B(gx, gy) = g_B(x, y)`` exactly, so only each orbit's representative,
    its smallest interior index, is walked.  The representatives advance in
    one ``iter_killed_vectors`` walk, one sparse product per step, even and
    odd ones paired in its columns, and each step's block is added to the
    accumulator of its step parity; each walked column holds the same sums
    as when every start is walked.  Each start's mass is read off one
    product with a 2 x |B| class-sum matrix, which adds its live class in
    index order, as a full-interior column sum does.  Each representative
    certifies its own tail (staircase columns reach their drop steps at
    different times); iteration ends when every representative's certified
    tail bound is below ``tol``.  Steps are certified ``_WINDOW`` at a time,
    holding only the window's first block and the totals before it; a window
    that holds the stopping step restores those totals and is re-walked from
    that block with ``killed_matrix(B)`` (the same products in the same
    order) up to that step only.  Every other column is then gathered as an
    image of its representative's, ``G[:, j] = G[h x, r]`` for a map h taking
    j to r.  Without symmetry every start is a representative.
    """
    maps = B.symmetries()
    rep = maps.min(axis=0)  # each point's orbit representative
    classes = parity_classes(B)
    reps = [c[rep[c] == c] for c in classes]
    # row c adds class c's rows in ascending order, one term at a time
    class_sums = sp.csr_matrix(
        (np.ones(len(B)), np.concatenate(classes), [0, len(classes[0]), len(B)]), shape=(2, len(B))
    )
    steps = iter_killed_vectors(B, np.concatenate(reps), SERIES_MAX_STEPS)
    width = max(map(len, reps))  # column j walks even representative j and odd one j
    totals = [np.zeros((len(B), width)) for _ in (0, 1)]  # sums over the even and the odd steps
    count = sum(map(len, reps))  # per-start arrays run class by class
    history = np.stack([np.full(count, np.inf), np.ones(count)])  # sums of steps n-2, n-1
    tail_bounds = np.full(count, np.inf)  # finite once a start is certified
    _, block = next(steps)
    totals[0] += block  # step 0 is accumulated, not certified
    n = 0  # the last accumulated step
    while np.isinf(tail_bounds).any():
        before, opening, sums = [total.copy() for total in totals], None, []
        for t, block in itertools.islice(steps, _WINDOW):
            totals[t % 2] += block  # accumulated and summed while the block is in cache
            opening = block if opening is None else opening  # the window's first block
            # each start's mass, on its live class: class c + t for starts of class c
            mass = class_sums @ block
            sums.append(np.concatenate([mass[(c + t) % 2, : len(reps[c])] for c in (0, 1)]))
        if not sums:
            break  # SERIES_MAX_STEPS reached
        # certify every step of the window at once: the same elementwise
        # arithmetic as one step at a time, on (steps, starts) arrays
        history = np.vstack([history[-2:], *sums])
        s, s_prev, s_prev2 = history[2:], history[1:-1], history[:-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(s_prev > 0, s / s_prev, 0.0)
            rho = np.where(np.isfinite(s_prev2) & (s_prev2 > 0), s / s_prev2, np.inf)
            one_step = np.where(lam < 1.0, s * lam / (1.0 - lam), np.inf)
            two_step = np.where(rho < 1.0, (s + s_prev) * rho / (1.0 - rho), np.inf)
        tails = np.where(s > 0, np.maximum(one_step, two_step), 0.0)
        below = (tails < tol) & np.isinf(tail_bounds)
        first = np.argmax(below, axis=0)  # each start's first certified step
        newly = below.any(axis=0)
        tail_bounds[newly] = tails[first[newly], np.flatnonzero(newly)]
        stop = first[newly].max() + 1 if np.isfinite(tail_bounds).all() else len(sums)
        if stop < len(sums):  # re-walk the window from its first block, up to the stopping step only
            totals, block, step = before, opening, killed_matrix(B)
            for t in range(n + 1, n + stop + 1):
                block = block if t == n + 1 else step @ block  # the walk's own product
                totals[t % 2] += block
        n += stop
    table = np.zeros((len(B), len(B)))
    for p, total in enumerate(totals):  # starts of class c hold class c + p after p-parity steps
        for c in (0, 1):
            live = classes[(c + p) % 2]
            table[np.ix_(live, reps[c])] = total[live, : len(reps[c])]
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


def green_solve(B: FiniteDomain, columns: Sequence[int] | None = None) -> GreenTable:
    """Green table by solving ``(I - P^B) G = I`` (``kernel.killed_solve``, certified).

    ``columns`` restricts the solve to the given point indices (the returned
    ``values`` then has one column per requested index, in order).  Every
    call solves afresh; a ball's factor is the one kept in the bounded memo,
    so repeated solves on a ball return the same values.
    """
    if columns is None:
        rhs = np.eye(len(B))
    else:
        columns = [int(c) for c in columns]
        rhs = np.zeros((len(B), len(columns)))
        rhs[columns, np.arange(len(columns))] = 1.0
    return GreenTable(values=killed_solve(B, rhs))


def _pair_distances(coords: np.ndarray) -> np.ndarray:
    """(m, m) l1 distance matrix for an (m, d) coordinate array."""
    return np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)


def ugi_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Two-sided interior comparison of ``g_B`` against its scale function.

    For points ``x, y`` in the half ball with ``r = max(1, dist(x,y))``
    restricted to ``r <= R/2``, the audit fits the extrema of
    ``g * r^{d-2}`` (d >= 3) or of ``g / log(R/r)`` (d = 2).  Pass requires
    ``0 < G1 <= G2``, ``G2/G1 <= UGI_RATIO_CAP`` at every R, and a common value
    inside every fitted window across R.
    """
    if d < 2:
        raise ValueError("the interior Green comparison is defined for d >= 2")
    r_values = sorted(int(r) for r in r_values)
    rows = []
    worst = None
    all_pass = True
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        table = green_solve(B, columns=half.tolist())
        g = table.values[half, :]
        dist = _pair_distances(B.coords[half])
        r = np.maximum(dist, 1)
        mask = r <= R / 2
        scale = np.log(R / r) if d == 2 else r.astype(float) ** (d - 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(mask, g / scale if d == 2 else g * scale, np.nan)
        g1 = float(np.nanmin(vals))
        g2 = float(np.nanmax(vals))
        imin = np.unravel_index(np.nanargmin(vals), vals.shape)
        imax = np.unravel_index(np.nanargmax(vals), vals.shape)
        ratio = g2 / g1 if g1 > 0 else math.inf
        ok = g1 > 0 and math.isfinite(g2) and ratio <= UGI_RATIO_CAP
        all_pass &= ok
        rows.append({"R": R, "G1": g1, "G2": g2, "ratio": ratio})
        if worst is None or ratio > worst["ratio"]:
            pts = B.interior
            worst = {
                "R": R,
                "ratio": ratio,
                "min_pair": [pts[half[imin[0]]], pts[half[imin[1]]]],
                "max_pair": [pts[half[imax[0]]], pts[half[imax[1]]]],
            }
    lo = max(row["G1"] for row in rows)
    hi = min(row["G2"] for row in rows)
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
        notes=[
            "scale function: "
            + ("g/log(R/r)" if d == 2 else "g*r^(d-2)")
            + ", pairs restricted to r <= R/2"
        ],
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

    All half-ball starts advance in one walk, one sparse product per step,
    even and odd starts paired in its columns, and the fit runs in log space
    through the envelope routine of ``bounds``.
    The walk is bipartite, so each pair has one live term and one exact
    zero: distance shell r of pair m is the shell of step m when r + m is
    even and of step m + 1 otherwise, so each step's live block, restricted
    to half-ball targets, is reduced once to one minimum per shell.  Ties go
    to the smallest m, then distance, then kernel value, then the first
    (start, target) in half-ball order.
    """
    grid = _DECAY_GRID
    r_values = sorted(int(r) for r in r_values)
    rows = []
    all_pass = True
    worst = None
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        dist = _pair_distances(B.coords[half])
        shell_count = int(dist.max()) + 1
        # the walk's block holds half-ball target t and start s at entry
        # (half[t], column[s]); after n steps the live (start, target) pairs
        # are those whose parities differ by n, taken in (start, target)
        # order, and read off the block by flat index
        column = np.empty(len(half), dtype=np.int64)
        groups = parity_classes(B, half)
        for g in groups:
            column[g] = np.arange(len(g))
        width = max(map(len, groups))
        parity = B.coords[half].sum(axis=1) % 2
        layouts = []  # per parity of n: flat block indices, starts, targets, distances
        for p in (0, 1):
            s, t = np.nonzero(parity[None, :] == (parity[:, None] + p) % 2)
            layouts.append((half[t] * width + column[s], s, t, dist[s, t]))
        fit = _EnvelopeFit(d, grid, lower=True)
        for n, block in iter_killed_vectors(B, half, R * R + 1):
            flat, s, t, pair_dist = layouts[n % 2]
            vals = block.take(flat)
            now = (_shell_extremes(vals, pair_dist, shell_count, lower=True), vals, s, t, pair_dist)
            m = n - 1
            if m >= 1:

                def witness(r: int) -> dict:
                    _, v, starts, targets, rd = prev if (r + m) % 2 == 0 else now
                    k = np.flatnonzero(rd == r)
                    k = k[int(np.argmin(v[k]))]
                    return {"R": R, "x": B.interior[half[starts[k]]], "y": B.interior[half[targets[k]]], "n": m}

                fit.fold(_pair_shells(prev[0], now[0], m), m, witness)
            prev = now
        amp = np.exp(fit.log_amp)
        best = int(np.argmax(amp))
        a_hat, c_hat = float(amp[best]), float(grid[best])
        all_pass &= a_hat > 0
        rows.append({"R": R, "A": a_hat, "C": c_hat})
        if worst is None or a_hat < worst.get("A", math.inf):
            worst = {"A": a_hat, "C": c_hat, **(fit.witness[best] or {})}
    return AuditReport(
        audit_id=f"green.killed_lower.d{d}",
        grid={"d": d, "R": r_values, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"fits": rows},
        worst=worst,
        passed=bool(all_pass),
        rows=rows,
    )


def comparability_ratio(d: int, R: int) -> float:
    """Measured pole-ratio constant of ``B(0, R)``.

    The maximum over poles ``y`` on the inner boundary of the half ball and
    points ``x1, x2`` in the quarter ball of ``g_B(x1, y) / g_B(x2, y)``.
    This is the per-step constant the chained Harnack certificate raises to
    the chain length.
    """
    B = make_ball((0,) * d, R)
    quarter = B.within(R // 4)
    poles = np.flatnonzero(B.inner_mask(B.within(R // 2)))
    table = green_solve(B, columns=poles)
    g = table.values[quarter, :]
    return float((g.max(axis=0) / g.min(axis=0)).max())


def comparability_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Measure the pole-ratio constant per R and check cross-R stability (``STABILITY_CAP``)."""
    r_values = sorted(int(r) for r in r_values)
    rows = []
    for R in r_values:
        rows.append({"R": R, "ratio": comparability_ratio(d, R)})
    ratios = [row["ratio"] for row in rows]
    stable = max(ratios) / min(ratios) <= STABILITY_CAP if ratios else False
    ok = all(math.isfinite(r) and r >= 1.0 for r in ratios) and stable
    return AuditReport(
        audit_id=f"green.comparability.d{d}",
        grid={"d": d, "R": r_values, "stability_cap": STABILITY_CAP},
        constants={"ratios": {str(row["R"]): row["ratio"] for row in rows}},
        worst={"max_ratio": max(ratios)} if ratios else None,
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
    if d < 1 or not r_values:
        raise ValueError("need d >= 1 and a nonempty radius grid")
    rows = []
    worst = None
    worst_rel = -1.0
    all_ok = True
    for R in r_values:
        B = make_ball((0,) * d, int(R))
        solved = green_solve(B)
        min_entry = float(solved.values.min())
        series = green_table_series(B, tol=0.01 * rel_tol * min_entry)
        gap = np.abs(series.values - solved.values)
        rel = float(gap.max() / min_entry)
        rel_entry = float((gap / solved.values).max())
        asym = float(
            np.abs(solved.values - solved.values.T).max() / min_entry
        )
        ok = (
            rel_entry <= rel_tol
            and asym <= rel_tol
            and not series.meta["truncated"]
        )
        all_ok = all_ok and ok
        if rel_entry > worst_rel:
            worst_rel = rel_entry
            worst = {"R": int(R), "rel_error": rel_entry}
        rows.append(
            {
                "R": int(R),
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
        grid={"d": d, "radii": [int(R) for R in r_values]},
        constants={"max_rel_error": worst_rel, "rel_tol": rel_tol},
        worst=worst,
        passed=all_ok,
        notes=["series stop tolerance = 1e-2 * rel_tol * (smallest solve entry)"],
        rows=rows,
    )
