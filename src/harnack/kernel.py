"""Exact n-step kernels of the simple random walk, free and killed.

The walk steps to each of the 2d lattice neighbours with probability 1/(2d).
Free kernels are computed by dynamic programming on a dense box: one step maps
a mass field ``f`` to ``(Pf)(y) = (1/2d) * sum_{z ~ y} f(z)``, growing the box
by one cell per side.  Because the update is a convex combination of exact
point masses, wrong-parity entries stay *exactly* zero: ``p_n(x, y) = 0``
unless ``n + graph_distance(x, y)`` is even, and for reachable points exactly
one of ``p_n, p_{n+1}`` is nonzero.

Killed kernels restrict the same update to a ball ``B``: mass stepping out of
``B`` is dropped, giving ``p_n^B(x, y) = P^x(X_n = y, n < exit time)``, stored
over the ball's interior index with one column per start, so a block of
starts advances with one sparse x dense product per step.

The step accumulates the two neighbour shifts per axis first, then adds the
per-axis pairs in axis order, then divides by 2d; this ordering makes
``p_2(0,0) == 1/(2d)`` exact in binary64 for d in {1,2,3} (for d=3 the sum
``6*fl(1/6)`` lands on the round-to-even tie at 1.0).

For d <= 2 there is an independent closed-form route: in d=1 the kernel is
the binomial pmf, and in d=2 the rotation ``(x1+x2, x1-x2)`` turns the walk
into two independent 1-d walks, so ``p_n(0,(a,b)) = b_n(a+b) * b_n(a-b)``.
``walk_pmf`` evaluates ``b_n`` with exact integer binomials and one correctly
rounded division per site, which lets audits reach step counts far beyond
the dense-DP window; a d=2 value is the product of two such factors.

A lazy 1-d comparison walk (hold probability (d-1)/d, steps 1/(2d) each way)
mirrors the law of a single coordinate of the d-dimensional walk.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .lattice import FiniteDomain, Point, as_point

__all__ = [
    "free_field",
    "iter_free_fields",
    "n_step",
    "walk_pmf",
    "closed_form_n_step",
    "killed_operator",
    "identity_minus",
    "killed_matrix",
    "iter_killed_vectors",
    "survival",
    "lazy_distribution",
    "lazy_exit_survival_curve",
    "lazy1d_exit_cdf",
    "exactness_audit",
    "projection_audit",
]


def _step_array(arr: np.ndarray, d: int) -> np.ndarray:
    """One free step on a centred box, growing it by one cell per side."""
    big_shape = tuple(s + 2 for s in arr.shape)
    base = tuple(slice(1, s + 1) for s in arr.shape)
    total = None
    for axis in range(d):
        pair = np.zeros(big_shape)
        lo = list(base)
        hi = list(base)
        lo[axis] = slice(0, arr.shape[axis])
        hi[axis] = slice(2, arr.shape[axis] + 2)
        pair[tuple(lo)] = arr
        pair[tuple(hi)] += arr
        if total is None:
            total = pair
        else:
            total += pair
    total /= 2.0 * d
    return total


# --- free-field cache -------------------------------------------------------
#
# Sequential audits iterate fields without retention (iter_free_fields);
# random access (n_step) goes through a memoized progression.  Low dimensions
# retain the whole progression, higher ones only the requested steps, so the
# cache stays within a desk-scale memory budget.  The maps behave as single
# logical maps under concurrent insert-or-get (one lock).

_FREE_LOCK = threading.Lock()
_FREE_SEQ: dict[int, list[np.ndarray]] = {}
_FREE_SPOT: dict[int, dict[int, np.ndarray]] = {}
_FREE_SPOT_KEEP = 4


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only, so no caller can corrupt the memo."""
    arr.setflags(write=False)
    return arr


def _retain_limit(d: int) -> int:
    return {1: 4096, 2: 256}.get(d, 0)


def free_field(d: int, n: int) -> np.ndarray:
    """The dense box of ``p_n(0, .)`` in dimension ``d`` (memoized)."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    with _FREE_LOCK:
        if n <= _retain_limit(d):
            seq = _FREE_SEQ.setdefault(d, [_frozen(np.ones((1,) * d))])
            while len(seq) <= n:
                seq.append(_frozen(_step_array(seq[-1], d)))
            return seq[n]
        spot = _FREE_SPOT.setdefault(d, {})
        if n in spot:
            return spot[n]
        starts = [m for m in spot if m < n]
        if starts:
            m = max(starts)
            arr = spot[m]
        else:
            seq = _FREE_SEQ.get(d)
            m = min(_retain_limit(d), n) if seq else 0
            if seq:
                while len(seq) <= m:
                    seq.append(_frozen(_step_array(seq[-1], d)))
                arr = seq[m]
            else:
                arr = np.ones((1,) * d)
        for _ in range(n - m):
            arr = _step_array(arr, d)
        spot[n] = _frozen(arr)
        while len(spot) > _FREE_SPOT_KEEP:
            del spot[min(spot)]
        return arr


def iter_free_fields(d: int, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, p_n(0,.))`` for n = 0..n_max without retaining the fields."""
    if d < 1 or n_max < 0:
        raise ValueError("need d >= 1 and n_max >= 0")
    arr = np.ones((1,) * d)
    yield 0, arr
    for n in range(1, n_max + 1):
        arr = _step_array(arr, d)
        yield n, arr


def n_step(x, y, n: int) -> float:
    """Exact ``p_n(x, y)`` via the memoized free field (translation invariance)."""
    x, y = as_point(x), as_point(y)
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if n < 0:
        raise ValueError("n must be >= 0")
    offset = tuple(b - a for a, b in zip(x, y))
    if sum(abs(o) for o in offset) > n:
        return 0.0
    arr = free_field(len(x), n)
    return float(arr[tuple(o + n for o in offset)])


def walk_pmf(n: int, sites) -> np.ndarray:
    """``P(S_n = site)`` of the 1-d simple walk for an array of sites.

    Each value is the exact rational ``comb(n, k) / 2**n`` correctly rounded
    to binary64: one ``math.comb`` per call, the ratio recurrence
    ``comb(n, k+1) = comb(n, k) * (n-k) / (k+1)`` over the needed ``k``, and
    one int/int true division per distinct ``k``.  Wrong-parity sites and
    sites with ``|site| > n`` are exactly zero.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sites = np.asarray(sites, dtype=np.int64)
    out = np.zeros(sites.shape)
    ok = (np.abs(sites) <= n) & ((sites + n) % 2 == 0)
    if not ok.any():
        return out
    ks, inverse = np.unique((sites[ok] + n) // 2, return_inverse=True)
    denom = 1 << n
    lo = int(ks[0])
    coef = math.comb(n, lo)
    values = np.empty(len(ks))
    k = lo
    for i, want in enumerate(ks.tolist()):
        while k < want:
            coef = coef * (n - k) // (k + 1)
            k += 1
        values[i] = coef / denom
    out[ok] = values[inverse.ravel()]
    return out


def closed_form_n_step(z, n: int) -> float:
    """``p_n(0, z)`` by closed form, available for d in {1, 2}.

    d=1 is the correctly rounded binomial pmf ``walk_pmf``; d=2 uses the
    independence of the rotated coordinates (z1+z2, z1-z2) and returns the
    binary64 product of two correctly rounded factors (at most three
    roundings from the exact value).  Both reach step counts far beyond the
    dense-DP window.
    """
    z = as_point(z)
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(z) == 1:
        return float(walk_pmf(n, z[0]))
    if len(z) == 2:
        return float(walk_pmf(n, z[0] + z[1]) * walk_pmf(n, z[0] - z[1]))
    raise ValueError("closed-form kernels are available for d <= 2 only")


# --- killed kernels ---------------------------------------------------------

_KILLED_LOCK = threading.Lock()
_KILLED: dict[tuple[Point, int], sp.csr_matrix] = {}


def killed_operator(D: FiniteDomain) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, float]:
    """The walk killed outside ``D``, built from ``D.neighbor_index``.

    Returns ``(P, rows, cols, w)``: the substochastic one-step matrix over
    the interior index, and every step that leaves D as (interior index,
    boundary index) pairs in neighbour order, each of weight ``w = 1/(2d)``.
    Boundary right-hand sides accumulate over those pairs in that order.
    """
    m, steps = D.neighbor_index.shape
    w = 1.0 / steps
    rows = np.repeat(np.arange(m), steps)
    cols = D.neighbor_index.ravel()
    inside = cols < m
    P = sp.csr_matrix(
        (np.full(int(inside.sum()), w), (rows[inside], cols[inside])), shape=(m, m)
    )
    return P, rows[~inside], cols[~inside] - m, w


def identity_minus(P: sp.spmatrix) -> sp.csc_matrix:
    """``I - P`` in CSC form, the matrix of the Green and Dirichlet solves."""
    return (sp.identity(P.shape[0], format="csc") - P).tocsc()


def killed_matrix(B: FiniteDomain) -> sp.csr_matrix:
    """The substochastic one-step matrix ``P^B`` of a ball (memoized, read-only)."""
    key = B.key()
    with _KILLED_LOCK:
        if key in _KILLED:
            return _KILLED[key]
    mat = killed_operator(B)[0]
    for arr in (mat.data, mat.indices, mat.indptr):
        _frozen(arr)
    with _KILLED_LOCK:
        return _KILLED.setdefault(key, mat)


def iter_killed_vectors(
    B: FiniteDomain, starts: Sequence[int], n_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, block)`` for n = 0..n_max, one sparse x dense product per step.

    ``block`` has one column per start index (into ``B``'s interior), holding
    ``p_n^B(start, .)`` over the interior index.  Column by column the product
    adds the same terms in the same order as a matrix-vector step, so a block
    of one start reproduces the single-start iteration bit for bit.  The
    yielded arrays are fresh each step and may be kept.
    """
    starts = np.asarray(starts, dtype=np.int64)
    block = np.zeros((len(B), len(starts)))
    block[starts, np.arange(len(starts))] = 1.0
    mat = killed_matrix(B)
    yield 0, block
    for n in range(1, n_max + 1):
        block = mat @ block
        yield n, block


def survival(x, B: FiniteDomain, n: int) -> float:
    """``P^x(exit time of B > n)``: total mass of the n-step killed field."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for _, block in iter_killed_vectors(B, [B.index_of(as_point(x))], n):
        pass
    return float(block.sum())


# --- lazy 1-d comparison walk ----------------------------------------------


def _lazy_step(vec: np.ndarray, d: int) -> np.ndarray:
    hold = (d - 1) / d
    side = 1.0 / (2 * d)
    out = hold * vec
    out[1:] += side * vec[:-1]
    out[:-1] += side * vec[1:]
    return out


def lazy_distribution(n: int, d: int) -> np.ndarray:
    """Law of the lazy walk at step ``n`` started at 0, over sites -n..n.

    The lazy walk holds with probability (d-1)/d and moves one unit each way
    with probability 1/(2d); this is exactly the law of a single coordinate
    of the d-dimensional simple walk.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    vec = np.zeros(2 * n + 1)
    vec[n] = 1.0
    for _ in range(n):
        vec = _lazy_step(vec, d)
    return vec


def lazy_exit_survival_curve(S: int, n_max: int, d: int) -> np.ndarray:
    """``P(exit time of [-S, S] > n)`` for n = 0..n_max, exact DP."""
    if S < 0 or n_max < 0 or d < 1:
        raise ValueError("need S >= 0, n_max >= 0, d >= 1")
    vec = np.zeros(2 * S + 1)
    vec[S] = 1.0
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        vec = _lazy_step(vec, d)
        out[n] = vec.sum()
    return out


def lazy1d_exit_cdf(S: int, n: int, d: int) -> float:
    """``P(exit time of [-S, S] <= n)`` for the lazy walk started at 0."""
    return 1.0 - float(lazy_exit_survival_curve(S, n, d)[n])


def exactness_audit(d: int, n_max: int) -> "AuditReport":
    """Audit the bit-level guarantees of the free-kernel DP up to ``n_max``.

    Checks, for every step count n <= n_max:

    - total mass is 1 within 1e-12 (convex combination of point masses);
    - wrong-parity entries are *exactly* zero;
    - the return probability after two steps is *exactly* ``1/(2d)``.
    """
    from .report import AuditReport

    if d < 1 or n_max < 2:
        raise ValueError("need d >= 1 and n_max >= 2")
    mass_tol = 1e-12
    worst_mass = 0.0
    worst_n = 0
    parity_exact = True
    rows = []
    for n, field in iter_free_fields(d, n_max):
        dev = abs(float(field.sum()) - 1.0)
        if dev > worst_mass:
            worst_mass, worst_n = dev, n
        # wrong-parity cells: graph distance from origin has opposite parity to n
        grids = np.meshgrid(*([np.arange(-n, n + 1)] * d), indexing="ij")
        dist = np.zeros_like(grids[0])
        for g in grids:
            dist += np.abs(g)
        off = field[(dist + n) % 2 == 1]
        if off.size and float(np.abs(off).max()) != 0.0:
            parity_exact = False
        if n == 2:
            two_step_exact = float(field[(n,) * d]) == 1.0 / (2 * d)
        rows.append({"n": n, "mass_deviation": dev})
    passed = worst_mass <= mass_tol and parity_exact and two_step_exact
    return AuditReport(
        audit_id=f"kernel.exactness.d{d}",
        grid={"d": d, "n_max": n_max},
        constants={
            "max_mass_deviation": worst_mass,
            "parity_zeros_exact": parity_exact,
            "two_step_return_exact": two_step_exact,
        },
        worst={"n": worst_n, "mass_deviation": worst_mass},
        passed=passed,
        notes=[f"mass tolerance {mass_tol:g}; parity and 2-step checks are exact"],
        rows=rows,
    )


def projection_audit(n_max: int, tol: float = 1e-12) -> "AuditReport":
    """Audit the coordinate-projection law of the planar walk.

    Summing the 2-d kernel over one coordinate must reproduce the lazy 1-d
    walk (hold 1/2, move 1/4 each way) for every step count n <= n_max.
    """
    from .report import AuditReport

    if n_max < 1:
        raise ValueError("need n_max >= 1")
    worst = 0.0
    worst_n = 0
    rows = []
    for n, field in iter_free_fields(2, n_max):
        marginal = field.sum(axis=1)
        dev = float(np.abs(marginal - lazy_distribution(n, 2)).max())
        if dev > worst:
            worst, worst_n = dev, n
        rows.append({"n": n, "max_marginal_deviation": dev})
    return AuditReport(
        audit_id="kernel.projection.d2",
        grid={"d": 2, "n_max": n_max},
        constants={"max_marginal_deviation": worst},
        worst={"n": worst_n, "deviation": worst},
        passed=worst <= tol,
        notes=[f"tolerance {tol:g}"],
        rows=rows,
    )
