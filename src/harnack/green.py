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
fit (the log-space envelope routine of ``bounds``, fed each step's live
parity block), and the pole-ratio comparability measurement used by the
chained Harnack certificate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .bounds import _DECAY_GRID, _EnvelopeFit, _pair_shells, _shell_extremes
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
    maps = B.symmetries()
    rep = maps.min(axis=0)  # each point's orbit representative
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
    r_values = radii(r_values)
    rows = []
    worst = None
    all_pass = True
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        g = green_solve(B, columns=half)[half, :]
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
    r_values = radii(r_values)
    rows = []
    all_pass = True
    worst = None
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        dist = _pair_distances(B.coords[half])
        shell_count = int(dist.max()) + 1
        # the walk's block holds half-ball target t and start s at entry
        # (half[t], column[s]), column by walk_columns; after n steps the
        # live (start, target) pairs are those at a distance of n's parity,
        # taken in (start, target) order, and read off the block by flat index
        column = walk_columns(B, half)
        width = column.max() + 1
        layouts = []  # per parity of n: flat block indices, starts, targets, distances
        for p in (0, 1):
            s, t = np.nonzero(dist % 2 == p)
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
        if worst is None or a_hat < worst["A"]:
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
