"""Green functions of the walk killed outside a ball, by two independent routes.

The Green function of a ball ``B`` is ``g_B(x, y) = sum_n p_n^B(x, y)``: the
expected number of visits to ``y`` before exiting, started at ``x``.  Two
mandatory, independent computations are provided and cross-audited:

``series``
    accumulates the killed kernels directly, with an adaptive truncation: once
    the per-step survival ratio stabilises below one, the remaining tail is
    bounded geometrically by ``s_N * lam/(1 - lam)`` and iteration stops when
    that certified bound drops below ``tol``.  Because killed chains are
    bipartite-flavoured, survival ratios oscillate with period two; the
    estimator takes the max of the last two consecutive ratios, which
    dominates both phases.

``solve``
    solves the defining linear system ``(I - P^B) G = I`` with a sparse LU
    factorisation (deterministic, single-threaded), and verifies the residual
    ``max |(I - P^B) G - I| < 1e-10``.  The factors of this M-matrix are sign
    structured, so back-substitution adds nonnegative terms only and even the
    exponentially small entries come out componentwise accurate.

Audits on top of the tables: interior two-sided comparisons of ``g`` against
``r^{2-d}`` (or ``log(R/r)`` in d=2), a killed near-diagonal Gaussian lower
fit, and the pole-ratio comparability measurement used by the chained Harnack
certificate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .kernel import identity_minus, iter_killed_vectors, killed_matrix
from .lattice import FiniteDomain, Point, as_point, make_ball
from .report import AuditReport

RESIDUAL_TOL = 1e-10

__all__ = [
    "GreenTable",
    "SolverError",
    "green_table_series",
    "green_solve",
    "green_value_floor",
    "ugi_audit",
    "killed_lower_audit",
    "comparability_audit",
    "comparability_ratio",
]


class SolverError(RuntimeError):
    """A linear solve failed its residual certification."""


@dataclass
class GreenTable:
    """Green values over a ball's point index.

    ``values[i, j] = g_B(interior[i], columns[j])``; ``columns`` is ``None``
    for a full table (then ``j`` runs over the whole index).
    """

    domain: FiniteDomain
    values: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)
    columns: tuple[int, ...] | None = None

    def value(self, x, y) -> float:
        i = self.domain.index_of(as_point(x))
        j = self.domain.index_of(as_point(y))
        if self.columns is not None:
            j = self.columns.index(j)
        return float(self.values[i, j])


_LU_LOCK = threading.Lock()
_LU_CACHE: dict[tuple[Point, int], spla.SuperLU] = {}
_TABLE_LOCK = threading.Lock()
_TABLE_CACHE: dict[tuple[Point, int], GreenTable] = {}
_TABLE_CACHE_MAX_ENTRIES = 16_000_000  # total cached float64 values


def _lu(B: FiniteDomain) -> spla.SuperLU:
    key = B.key()
    with _LU_LOCK:
        if key in _LU_CACHE:
            return _LU_CACHE[key]
    factor = spla.splu(identity_minus(killed_matrix(B)))
    with _LU_LOCK:
        return _LU_CACHE.setdefault(key, factor)


def green_value_floor(d: int, R: int) -> float:
    """Provable positive floor for every Green entry of ``B(x0, R)``.

    Any two ball points are joined by an l1 geodesic staying inside the ball
    (greedy steps toward the centre never leave it), so
    ``g_B(x, y) >= p_dist^B(x, y) >= (2d)^{-dist} >= (2d)^{-2R}``.
    """
    return float((2 * d) ** (-2 * R)) if R < 500 else math.exp(-2 * R * math.log(2 * d))


def green_table_series(
    B: FiniteDomain, tol: float = 1e-10, max_steps: int = 200_000
) -> GreenTable:
    """Full Green table by series accumulation, all starts advanced together.

    Each start certifies its own tail (staircase columns reach their drop
    steps at different times); iteration ends when every column's certified
    tail bound is below ``tol``.
    """
    size = len(B)
    table = np.zeros((size, size))
    s_prev2 = np.full(size, np.inf)
    s_prev = np.ones(size)
    certified = np.zeros(size, dtype=bool)
    tail_bounds = np.full(size, np.inf)
    truncated = True
    for n, current in iter_killed_vectors(B, range(size), max_steps):
        table += current
        if n == 0:
            continue
        s = current.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(s_prev > 0, s / s_prev, 0.0)
            rho = np.where(
                np.isfinite(s_prev2) & (s_prev2 > 0), s / s_prev2, np.inf
            )
            one_step = np.where(lam < 1.0, s * lam / (1.0 - lam), np.inf)
            two_step = np.where(rho < 1.0, (s + s_prev) * rho / (1.0 - rho), np.inf)
        tails = np.where(s > 0, np.maximum(one_step, two_step), 0.0)
        newly = ~certified & (tails < tol)
        tail_bounds[newly] = tails[newly]
        certified |= newly
        if certified.all():
            truncated = False
            break
        s_prev2, s_prev = s_prev, s
    meta = {
        "terms": n,
        "tail_bound": float(tail_bounds.max()) if not truncated else math.inf,
        "tol": tol,
        "truncated": truncated,
    }
    return GreenTable(domain=B, values=table, method="series", meta=meta)


def green_solve(B: FiniteDomain, columns: Sequence[int] | None = None) -> GreenTable:
    """Green table by solving ``(I - P^B) G = I`` (sparse LU, certified residual).

    ``columns`` restricts the solve to the given point indices (the returned
    ``values`` then has one column per requested index, in order).  Full
    tables are memoized per ball and read-only.
    """
    key = B.key()
    if columns is None:
        with _TABLE_LOCK:
            cached = _TABLE_CACHE.get(key)
        if cached is not None:
            return cached
    size = len(B)
    lu = _lu(B)
    if columns is None:
        rhs = np.eye(size)
    else:
        columns = tuple(int(c) for c in columns)
        rhs = np.zeros((size, len(columns)))
        for j, c in enumerate(columns):
            rhs[c, j] = 1.0
    values = lu.solve(rhs)
    residual = float(np.abs(identity_minus(killed_matrix(B)) @ values - rhs).max())
    if residual >= RESIDUAL_TOL:
        raise SolverError(
            f"green solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"on B({B.center}, {B.radius})"
        )
    if columns is None:
        values.setflags(write=False)
    table = GreenTable(
        domain=B,
        values=values,
        method="solve",
        meta={"residual": residual},
        columns=columns,
    )
    if columns is None:
        with _TABLE_LOCK:
            total = sum(t.values.size for t in _TABLE_CACHE.values())
            if total + values.size <= _TABLE_CACHE_MAX_ENTRIES:
                _TABLE_CACHE.setdefault(key, table)
    return table


def _pair_distances(coords: np.ndarray) -> np.ndarray:
    """(m, m) l1 distance matrix for an (m, d) coordinate array."""
    return np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)


def ugi_audit(d: int, r_values: Iterable[int], ratio_cap: float = 10.0) -> AuditReport:
    """Two-sided interior comparison of ``g_B`` against its scale function.

    For points ``x, y`` in the half ball with ``r = max(1, dist(x,y))``
    restricted to ``r <= R/2``, the audit fits the extrema of
    ``g * r^{d-2}`` (d >= 3) or of ``g / log(R/r)`` (d = 2).  Pass requires
    ``0 < G1 <= G2``, ``G2/G1 <= ratio_cap`` at every R, and a common value
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
        ok = g1 > 0 and math.isfinite(g2) and ratio <= ratio_cap
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
        grid={"d": d, "R": r_values, "ratio_cap": ratio_cap},
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


def _decay_grid(lo: float = 1.0 / 64, hi: float = 8.0, count: int = 32) -> np.ndarray:
    return np.geomspace(lo, hi, count)


def killed_lower_audit(
    d: int,
    r_values: Iterable[int],
    decay_grid: np.ndarray | None = None,
) -> AuditReport:
    """Fit a Gaussian lower envelope to the *killed* parity-paired kernel.

    For each R, over interior points ``x, y`` of the half ball and times
    ``max(1, dist) <= n <= R^2``, fits ``(A, C)`` with

        ``p_n^B(x,y) + p_{n+1}^B(x,y) >= A * n^{-d/2} * exp(-C * dist^2 / n)``

    by scanning ``C`` over a log grid and taking the minimum-implied amplitude;
    the reported pair maximises the amplitude margin.  Pass iff ``A > 0``.

    All half-ball starts advance together.  Each step evaluates
    ``pair * n^{d/2} * exp(C * dist^2 / n)`` over the admissible
    (start, target) pairs one decay value at a time; ties in the minimum go
    to the first pair in (start, n, target) order.
    """
    grid = _decay_grid() if decay_grid is None else np.asarray(decay_grid, dtype=float)
    r_values = sorted(int(r) for r in r_values)
    rows = []
    all_pass = True
    worst = None
    for R in r_values:
        B = make_ball((0,) * d, R)
        half = B.within(R // 2)
        dist = _pair_distances(B.coords[half])  # (start, target)
        r = np.arange(dist.max() + 1, dtype=float)
        amp = np.full(grid.shape, np.inf)
        witness: list[dict | None] = [None] * len(grid)
        start_of = np.full(grid.shape, len(half))  # start of each witness
        prev = None
        for n, block in iter_killed_vectors(B, half, R * R + 1):
            now = block[half].T
            m = n - 1  # pair index
            if m >= 1:
                sel = dist <= m
                flat = np.flatnonzero(sel)
                base = (prev + now)[sel] * m ** (d / 2.0)
                dsel = dist[sel]
                rm = r[: m + 1]
                factor = np.exp(grid[:, None] * rm * rm / m)  # by decay and distance
                for gi in range(len(grid)):
                    vals = base * factor[gi, dsel]
                    k = int(np.argmin(vals))
                    si, ti = divmod(int(flat[k]), len(half))
                    if vals[k] < amp[gi] or (vals[k] == amp[gi] and si < start_of[gi]):
                        amp[gi] = float(vals[k])
                        start_of[gi] = si
                        witness[gi] = {
                            "R": R,
                            "x": B.interior[half[si]],
                            "y": B.interior[half[ti]],
                            "n": m,
                        }
            prev = now
        best = int(np.argmax(amp))
        a_hat, c_hat = float(amp[best]), float(grid[best])
        ok = a_hat > 0
        all_pass &= ok
        rows.append({"R": R, "A": a_hat, "C": c_hat})
        if worst is None or a_hat < worst.get("A", math.inf):
            worst = {"A": a_hat, "C": c_hat, **(witness[best] or {})}
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


def comparability_audit(
    d: int, r_values: Iterable[int], stability_cap: float = 3.0
) -> AuditReport:
    """Measure the pole-ratio constant per R and check cross-R stability."""
    r_values = sorted(int(r) for r in r_values)
    rows = []
    for R in r_values:
        rows.append({"R": R, "ratio": comparability_ratio(d, R)})
    ratios = [row["ratio"] for row in rows]
    stable = max(ratios) / min(ratios) <= stability_cap if ratios else False
    ok = all(math.isfinite(r) and r >= 1.0 for r in ratios) and stable
    return AuditReport(
        audit_id=f"green.comparability.d{d}",
        grid={"d": d, "R": r_values, "stability_cap": stability_cap},
        constants={"ratios": {str(row["R"]): row["ratio"] for row in rows}},
        worst={"max_ratio": max(ratios)} if ratios else None,
        passed=bool(ok),
        notes=["measured constant reported; no symbolic form asserted"],
        rows=rows,
    )


def equivalence_audit(
    d: int, r_values: Sequence[int], rel_tol: float = 1e-8
) -> AuditReport:
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
        rel = float(np.abs(series.values - solved.values).max() / min_entry)
        rel_entry = float((np.abs(series.values - solved.values) / solved.values).max())
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
