"""Exact n-step kernels of the simple random walk, free and killed.

The walk steps to each of the 2d lattice neighbours with probability 1/(2d).
Free kernels are computed by dynamic programming: one step maps a mass field
``f`` to ``(Pf)(y) = (1/2d) * sum_{z ~ y} f(z)``.  Because the update is a
convex combination of exact point masses, wrong-parity entries stay *exactly*
zero: ``p_n(x, y) = 0`` unless ``n + graph_distance(x, y)`` is even, and for
reachable points exactly one of ``p_n, p_{n+1}`` is nonzero.

The DP runs on the orthant ``{0..n}^d`` only, reading a neighbour at ``-1``
on an axis as its mirror image at ``+1``.  This equals the DP on the full box
``{-n..n}^d`` bit for bit: a reflection of one axis only swaps the two
operands of that axis's pair sum ``f(y+e) + f(y-e)``, IEEE addition is
commutative, and the pairs are still added in axis order, then divided by
2d.  That order makes ``p_2(0,0) == 1/(2d)`` exact in binary64 for d in
{1,2,3} (for d=3 the sum ``6*fl(1/6)`` lands on the round-to-even tie at
1.0).  Permutations of the coordinates are *not* folded: they reorder the
per-axis sums, and in d = 3 the rounded field is not symmetric under them.
One progression per dimension, keyed ``(d, n)``, lives in the bounded memo
(``Memo``).  The orthant is a free field's only shape in the package; only
the cache's file format mirrors it out to the box (``cache.encode_free``).

Killed kernels restrict the same update to a ball ``B``: mass stepping out of
``B`` is dropped, giving ``p_n^B(x, y) = P^x(X_n = y, n < exit time)``, stored
over the ball's interior index with one column per start, so a block of starts
advances with one product with ``killed_matrix(B)`` per step.  That CSR
``P^B`` is the domain's one walk matrix: ``killed_solve`` factors the
``I - P^B`` it reads off it; its steps out of ``B``, the exit block ``P(., ∂B)``,
carry boundary data into a solve (``exit_coupling``).  The walk is bipartite:
every step flips the parity of ``sum(coords)``, so the killed matrix maps the
even interior points to the odd ones and back, and after n steps from a start
of parity c the mass lives on class ``c + n (mod 2)`` only.  Each column
therefore carries one even and one odd start (``walk_columns`` states which):
their masses always sit on opposite classes, so one product advances both
parity walks at once, every entry the same row sum in the same order as a
single-start step.

For d <= 2 there is an independent closed-form route: in d=1 the kernel is
the binomial pmf ``b_n``, and in d=2 the rotation ``(x1+x2, x1-x2)`` turns
the walk into two independent 1-d walks, so
``p_n(0,(a,b)) = b_n(a+b) * b_n(a-b)``.  ``walk_pmf`` evaluates ``b_n`` with
exact integer binomials, the first one built from prime powers, and one
correctly rounded division per site, which lets the chain certificates of
``bounds`` reach step counts far beyond the dense-DP window.

A lazy 1-d comparison walk (hold probability (d-1)/d, steps 1/(2d) each way)
mirrors the law of a single coordinate of the d-dimensional walk; one walk,
killed outside an interval, serves both its free law and its exit survival.
"""

from __future__ import annotations

import math
import threading
from functools import reduce
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import FiniteDomain, _integer_array, as_point, graph_distance
from .report import AuditReport

__all__ = [
    "free_field",
    "iter_free_fields",
    "n_step",
    "walk_pmf",
    "exit_coupling",
    "Memo",
    "killed_matrix",
    "killed_solve",
    "SolverError",
    "walk_columns",
    "iter_killed_vectors",
    "lazy_walk",
    "exactness_audit",
    "projection_audit",
]

MASS_TOL = 1e-12  # the exactness gate on each step's |mass - 1|
PROJECTION_TOL = 1e-12  # the projection gate on the max marginal deviation
RESIDUAL_TOL = 1e-10  # every killed solve's certificate on max |u - P u - rhs|


class SolverError(RuntimeError):
    """A linear solve failed its residual certification."""


def _binomial(n: int, k: int) -> int:
    """``comb(n, k)`` as a balanced product of prime powers (0 for k outside [0, n]).

    The exponent of each prime p <= n is Legendre's
    ``sum_i floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i)``, over a sieve
    computed per call; a prime above ``sqrt(n)`` has only the i = 1 term, so
    its exponent is 0 or 1.  Multiplying the factors pairwise, in a balanced
    tree, keeps the big-integer products between operands of similar size.
    The same integer as ``math.comb``, several times faster at n in the tens
    of thousands.
    """
    if not 0 <= k <= n:
        return 0
    root = math.isqrt(n)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    large = primes[primes > root]
    factors = large[n // large - k // large - (n - k) // large > 0].tolist()
    for p in primes[: len(primes) - len(large)].tolist():
        exponent, q = 0, p
        while q <= n:
            exponent += n // q - k // q - (n - k) // q
            q *= p
        if exponent:
            factors.append(p**exponent)
    while len(factors) > 1:
        leftover = factors[-1:] if len(factors) % 2 else []
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + leftover
    return factors[0] if factors else 1


def walk_pmf(n: int, sites) -> np.ndarray:
    """``P(S_n = site)`` of the 1-d simple walk for a nonempty integer array of sites.

    Each value is the exact rational ``comb(n, k) / 2**n`` correctly rounded
    to binary64: one prime-power binomial per call (``_binomial``), the ratio
    recurrence ``comb(n, k+1) = comb(n, k) * (n-k) / (k+1)`` over the needed
    ``k``, and one int/int true division per distinct ``k``.  Wrong-parity
    sites and sites with ``|site| > n`` are exactly zero.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sites = _integer_array(sites, "sites")
    out = np.zeros(sites.shape)
    ok = (np.abs(sites) <= n) & ((sites + n) % 2 == 0)
    if not ok.any():
        return out
    ks, inverse = np.unique((sites[ok] + n) // 2, return_inverse=True)
    denom = 1 << n
    lo = int(ks[0])
    coef = _binomial(n, lo)
    values = np.empty(len(ks))
    k = lo
    for i, want in enumerate(ks.tolist()):
        while k < want:
            coef = coef * (n - k) // (k + 1)
            k += 1
        values[i] = coef / denom
    out[ok] = values[inverse.ravel()]
    return out


# --- one bounded memo -------------------------------------------------------

MEMO_BYTES = 256 << 20  # what all memos together may hold; a value past it is not stored


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only, so no caller can corrupt the memo."""
    arr.setflags(write=False)
    return arr


def _sealed(value) -> int:
    """Make a memoized value's arrays read-only; return the bytes they hold.

    The memos hold orthant fields (ndarrays), ``killed_matrix``'s CSR
    matrices (three arrays each) and SuperLU factors, which count the
    binary64 values and int32 indices of their L + U nonzeros.
    """
    if isinstance(value, np.ndarray):
        return _frozen(value).nbytes
    if sp.issparse(value):
        return sum(map(_sealed, (value.data, value.indices, value.indptr)))
    return 12 * value.nnz  # a SuperLU factor


class Memo:
    """A keyed get-or-compute memo; every instance draws on one budget, ``MEMO_BYTES``.

    ``get`` computes outside the lock, so a slow build holds up no other
    key; when threads build one key at once, the first insert wins and all
    of them return it.  Every value ``get`` returns has read-only arrays.
    A value that would take the memos' total past ``MEMO_BYTES`` is
    returned but not stored, and so is every value of key ``None``.
    """

    _lock = threading.Lock()
    held = 0  # bytes stored by all instances

    def __init__(self) -> None:
        self._values: dict = {}

    def __contains__(self, key) -> bool:
        return key in self._values

    def get(self, key, compute):
        with Memo._lock:
            if key in self._values:
                return self._values[key]
        value = compute()
        size = _sealed(value)
        if key is None:
            return value
        with Memo._lock:
            if key not in self._values and Memo.held + size <= MEMO_BYTES:
                self._values[key] = value
                Memo.held += size
            return self._values.get(key, value)


# --- free fields -------------------------------------------------------------

_FREE = Memo()  # (d, n) -> p_n(0, .) on the orthant {0..n}^d


def _orthant_step(arr: np.ndarray, d: int) -> np.ndarray:
    """One free step on the orthant ``{0..n}^d``, growing it by one cell per axis."""
    n = arr.shape[0] - 1
    # The result, which the memo keeps, is allocated before the scratch.  Peak
    # RSS follows glibc's dynamic mmap threshold, which rises as mmapped blocks
    # are freed: in-process `all --dim 2` runs (glibc 2.36, x86-64) peaked near
    # 95 MB instead of 87 MB in 6 of 20 runs with the scratch allocated first,
    # in 3 of 20 in this order, and in none with the threshold pinned.
    total = np.zeros((n + 2,) * d)
    for axis in range(d):
        pair = total if axis == 0 else np.zeros(total.shape)
        # this axis first, the others cut to the old extent, beyond which the pair is zero
        o = np.moveaxis(pair, axis, 0)[(slice(None),) + (slice(0, n + 1),) * (d - 1)]
        f = np.moveaxis(arr, axis, 0)
        o[:n] = f[1:]  # f(y + e)
        o[1:] += f  # f(y - e)
        if n:
            o[0] += f[1]  # f(-e) := f(e)
        if axis:
            total += pair
    total /= 2.0 * d
    return total


def iter_free_fields(d: int, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, p_n(0, .))`` over the orthant ``{0..n}^d`` for n = 0..n_max.

    Entry ``y`` holds ``p_n(0, y)``, and ``p_n(0, .)`` is even in every
    coordinate, so the orthant holds every value of the box.  The fields
    come from the bounded memo (``Memo``, keyed ``(d, n)``), so audits that
    walk the same dimension share one progression; they are read-only.
    """
    if d < 1 or n_max < 0:
        raise ValueError("need d >= 1 and n_max >= 0")
    arr = _FREE.get((d, 0), lambda: np.ones((1,) * d))
    yield 0, arr
    for n in range(1, n_max + 1):
        arr = _FREE.get((d, n), lambda: _orthant_step(arr, d))
        yield n, arr


def _orthant_graph(d: int, n: int) -> np.ndarray:
    """Graph distance from the origin over the orthant ``{0..n}^d``."""
    return reduce(np.add.outer, [np.arange(n + 1)] * d)


def free_field(d: int, n: int) -> np.ndarray:
    """The memoized orthant ``{0..n}^d`` of ``p_n(0, .)`` in dimension ``d`` (read-only)."""
    for _, arr in iter_free_fields(d, n):
        pass
    return arr


def n_step(x, y, n: int) -> float:
    """Exact ``p_n(x, y)`` via the memoized orthant progression (translation invariance)."""
    x, y = as_point(x), as_point(y)
    if n < 0:
        raise ValueError("n must be >= 0")
    if graph_distance(x, y) > n:
        return 0.0
    return float(free_field(len(x), n)[tuple(abs(b - a) for a, b in zip(x, y))])


# --- killed kernels ---------------------------------------------------------

_KILLED = Memo()  # B.key() -> P^B
_LU = Memo()  # B.key() -> SuperLU factor of I - P^B
# SuperLU's symmetric mode: a minimum-degree ordering of A^T + A and diagonal pivots only
_SPD = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def exit_coupling(D: FiniteDomain, phi: np.ndarray) -> np.ndarray:
    """The exit block's product ``P(., ∂D) phi``, read off ``D.neighbor_index``: the one place the exit rule is built.

    Boundary data over ``D.outer_coords`` (a column per problem) enter a
    solve as this coupling, each point adding its exit steps' ``phi(z) / 2d``
    one at a time in neighbour order, not sorted by ``z``: rounded terms can
    sum differently in another order.  A SciPy matrix costs more to build.
    """
    shares = np.concatenate([np.zeros((1,) + np.shape(phi)[1:]), 1.0 / (2 * D.dimension) * phi])  # row 0: a step inside D
    out = np.zeros((len(D),) + np.shape(phi)[1:])
    for step in np.maximum(D.neighbor_index - (len(D) - 1), 0).T:
        out += shares[step]
    return out


def _walk_operator(D: FiniteDomain) -> sp.csr_matrix:
    """``P^D`` as canonical CSR, from one sort of ``D.neighbor_index``: row i holds its columns in ``D``, ascending."""
    m, w = len(D), 1.0 / (2 * D.dimension)
    cols = np.sort(D.neighbor_index, axis=1)
    keep = cols < m  # steps out of D, indices >= m, sort last
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)  # SciPy's index dtype here
    return sp.csr_matrix((np.full(indptr[-1], w), cols[keep].astype(np.int32), indptr), shape=(m, m))


def killed_matrix(B: FiniteDomain) -> sp.csr_matrix:
    """The substochastic one-step matrix ``P^B`` of the walk killed outside ``B`` (read-only).

    Canonical CSR straight from ``B.neighbor_index`` (``_walk_operator``), the
    one walk matrix of a domain: ``killed_solve`` reads ``I - P^B`` off it.  A
    ball's is kept in the bounded memo (``Memo``, within ``MEMO_BYTES``); any
    other domain's is built afresh.
    """
    return _KILLED.get(B.key(), lambda: _walk_operator(B))


def killed_solve(D: FiniteDomain, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - P^D) u = rhs`` for a vector or a block of columns, certified.

    The one factorization and the one solve of the package.  ``I - P^D``, a
    symmetric, diagonally dominant M-matrix, is read off ``killed_matrix(D)``:
    its CSR arrays read as CSC are the matrix SuperLU factors in symmetric
    mode (``_SPD``), no pivoting, which keeps the factors sign structured.  A
    ball's ``P^D`` and factor are kept in the bounded memo (``Memo``), shared
    by Green tables, Dirichlet solves, harmonic measures and balayage; any
    other domain's one ``P^D`` feeds both its factor and its certificate.  A
    block of columns equals its column solves bit for bit.  Raises
    ``SolverError`` unless ``max |u - P^D u - rhs| < RESIDUAL_TOL``.
    """
    P = killed_matrix(D)
    u = _LU.get(D.key(), lambda: spla.splu((sp.identity(len(D), format="csr") - P).T, **_SPD)).solve(rhs)
    residual = P @ u  # -(u - P u - rhs), in the one temporary
    residual -= u
    residual += rhs
    worst = float(np.abs(residual, out=residual).max())
    if not worst < RESIDUAL_TOL:
        raise SolverError(f"killed solve residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} on {len(D)} points")
    return u


def walk_columns(B: FiniteDomain, starts: Sequence[int]) -> np.ndarray:
    """Each start's ``iter_killed_vectors`` column: its rank among ``starts`` of its parity class.

    ``starts`` are interior indices (``FiniteDomain.interior_indices``).  A
    point is even when the sum of its coordinates is; each walk step moves
    between the two classes, so the j-th even and the j-th odd start, each
    class in the order given, share column j.
    """
    odd = B.coords[B.interior_indices(starts)].sum(axis=1) % 2 == 1
    return np.where(odd, np.cumsum(odd), np.cumsum(~odd)) - 1


def iter_killed_vectors(
    B: FiniteDomain, starts: Sequence[int], n_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, block)`` for n = 0..n_max, one sparse x dense product per step.

    ``starts`` are interior indices of either parity class or of both
    (``FiniteDomain.interior_indices``).  The block's rows are the interior
    index, and start i walks in column ``walk_columns(B, starts)[i]``: the
    j-th even and the j-th odd start share column j, with
    ``p_n^B(start, .)`` of the even start on the rows of class ``n (mod 2)``
    and of the odd start on the other class; the narrower class's missing
    starts are exact-zero columns.  The two masses never share a class, so
    each step multiplies the whole block by ``killed_matrix(B)``, and a
    block of one start is the single-start iteration itself: its mass is
    ``block[:, 0].sum()``.  The yielded arrays are fresh each step and may
    be kept.
    """
    column = walk_columns(B, starts)
    block = np.zeros((len(B), column.max() + 1))
    block[B.interior_indices(starts), column] = 1.0
    step = killed_matrix(B)
    yield 0, block
    for n in range(1, n_max + 1):
        block = step @ block
        yield n, block


# --- lazy 1-d comparison walk ----------------------------------------------


def _lazy_step(vec: np.ndarray, d: int) -> np.ndarray:
    sides = np.zeros_like(vec)  # each cell's two neighbours, summed before scaling: the step is bit-symmetric
    sides[1:] = vec[:-1]
    sides[:-1] += vec[1:]
    return (d - 1) / d * vec + 1.0 / (2 * d) * sides


def lazy_walk(d: int, S: int, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(n, law)`` of the lazy walk from 0, killed outside [-S, S], for n = 0..n_max.

    The lazy walk holds with probability (d-1)/d and moves one unit each way
    with probability 1/(2d): the law of one coordinate of the d-dimensional
    simple walk.  ``law[S + k]`` is ``P(X_n = k, n < exit time)``: mass
    stepping past -S or S is dropped, so ``law.sum()`` is the survival.
    Until step S nothing can leave, and ``law[S - n : S + n + 1]`` is the
    free law over -n..n, bit for bit: each step is elementwise and the cells
    beyond reach stay exact zeros.  The yielded arrays are fresh each step
    and may be kept.
    """
    if d < 1 or S < 0 or n_max < 0:
        raise ValueError("need d >= 1, S >= 0 and n_max >= 0")
    law = np.zeros(2 * S + 1)
    law[S] = 1.0
    yield 0, law
    for n in range(1, n_max + 1):
        law = _lazy_step(law, d)
        yield n, law


def exactness_audit(d: int, n_max: int) -> AuditReport:
    """Audit the bit-level guarantees of the free-kernel DP up to ``n_max``.

    Checks, for every step count n <= n_max:

    - the box's total mass is 1 within ``MASS_TOL`` (convex combination of
      point masses), summed exactly: an orthant cell with k nonzero
      coordinates stands for 2^k box cells, scaling by 2^k is exact, and
      ``math.fsum`` rounds the sum once;
    - wrong-parity entries are *exactly* zero;
    - the return probability after two steps is *exactly* ``1/(2d)``.
    """
    if d < 1 or n_max < 2:
        raise ValueError("need d >= 1 and n_max >= 2")
    worst_mass = 0.0
    worst_n = 0
    parity_exact = True
    rows = []
    for n, field in iter_free_fields(d, n_max):
        scaled = np.ldexp(field, reduce(np.add.outer, [np.minimum(np.arange(n + 1), 1)] * d))  # v * 2^k
        dev = abs(math.fsum(scaled[scaled != 0].tolist()) - 1.0)  # zeros, the wrong-parity half, add nothing
        if dev > worst_mass:
            worst_mass, worst_n = dev, n
        # wrong-parity cells: graph distance from origin has opposite parity to n
        off = field[(_orthant_graph(d, n) + n) % 2 == 1]
        if off.size and float(np.abs(off).max()) != 0.0:
            parity_exact = False
        if n == 2:
            two_step_exact = float(field[(0,) * d]) == 1.0 / (2 * d)
        rows.append({"n": n, "mass_deviation": dev})
    passed = worst_mass <= MASS_TOL and parity_exact and two_step_exact
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
        notes=[f"mass tolerance {MASS_TOL:g}; parity and 2-step checks are exact"],
        rows=rows,
    )


def projection_audit(n_max: int) -> AuditReport:
    """Audit the coordinate-projection law of the planar walk.

    Summing the 2-d kernel over one coordinate must reproduce the lazy 1-d
    walk (hold 1/2, move 1/4 each way) for every step count n <= n_max, to
    ``PROJECTION_TOL``; both laws are even, so the orthant's 0..n suffices.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    worst = 0.0
    worst_n = 0
    rows = []
    # the lazy walk on [-n_max, n_max] has lost no mass by step n_max
    for (n, field), (_, law) in zip(iter_free_fields(2, n_max), lazy_walk(2, n_max, n_max)):
        marginal = field[:, 0] + 2 * field[:, 1:].sum(axis=1)  # over the second coordinate's -n..n
        dev = float(np.abs(marginal - law[n_max : n_max + n + 1]).max())
        if dev > worst:
            worst, worst_n = dev, n
        rows.append({"n": n, "max_marginal_deviation": dev})
    return AuditReport(
        audit_id="kernel.projection.d2",
        grid={"d": 2, "n_max": n_max},
        constants={"max_marginal_deviation": worst},
        worst={"n": worst_n, "deviation": worst},
        passed=worst <= PROJECTION_TOL,
        notes=[f"tolerance {PROJECTION_TOL:g}"],
        rows=rows,
    )
