"""The domain's neighbour-index array and the operators built from it.

The loop constructions over :func:`neighbors` below are the reference: the
vectorized index, both boundaries, the killed one-step matrix, the ``I - P``
system that ``kernel`` factors from it and the exit block must equal them
exactly (same sparse ``indices`` and ``data``; each point's exit steps
added in the reference's neighbour order).
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack import bounds, ehi, exit_time, green, kernel
from harnack.bounds import chain_certificate
from harnack.exit_time import exact_exit_cdf
from harnack.green import green_solve
from harnack.harmonic import (
    LatticeField,
    _random_subset,
    balayage,
    balayage_batch_audit,
    dirichlet_mc,
    laplacian,
    random_harmonic,
)
from harnack.kernel import (
    exactness_audit,
    exit_coupling,
    iter_killed_vectors,
    killed_matrix,
    n_step,
    walk_columns,
)
from harnack.lattice import FiniteDomain, build_ball_chain, make_ball, neighbors


def reference_domain(points):
    """Interior, outer boundary, inner boundary and neighbour index by loops."""
    interior = sorted(set(points))
    inside = set(interior)
    outer = sorted({q for p in interior for q in neighbors(p) if q not in inside})
    inner = [p for p in interior if any(q not in inside for q in neighbors(p))]
    index = {p: i for i, p in enumerate(interior + outer)}
    nbr = [[index[q] for q in neighbors(p)] for p in interior]
    return tuple(interior), tuple(outer), tuple(inner), np.array(nbr, dtype=np.int64)


def reference_operators(points):
    """Killed matrix, both ``I - P`` assemblies and each point's exit steps in neighbour order, by loops."""
    interior, outer, _, _ = reference_domain(points)
    m, d = len(interior), len(interior[0])
    w = 1.0 / (2 * d)
    index = {p: i for i, p in enumerate(interior + outer)}
    rows, cols = [], []
    rows_i, cols_i, vals_i = [], [], []
    exits = [[] for _ in interior]
    for i, p in enumerate(interior):
        rows_i.append(i)
        cols_i.append(i)
        vals_i.append(1.0)
        for q in neighbors(p):
            j = index[q]
            if j < m:
                rows.append(i)
                cols.append(j)
                rows_i.append(i)
                cols_i.append(j)
                vals_i.append(-w)
            else:
                exits[i].append(j - m)
    P = sp.csr_matrix((np.full(len(rows), w), (rows, cols)), shape=(m, m))
    system = sp.csc_matrix((vals_i, (rows_i, cols_i)), shape=(m, m))
    green_system = (sp.identity(m, format="csc") - P).tocsc()
    return P, system, green_system, exits


def sum_in_order(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


def reference_laplacian(h, point):
    total = 0.0
    for y in neighbors(point):
        total += h.value_at(y)
    return total / (2.0 * len(point)) - h.value_at(point)


def assert_same_sparse(a, b):
    assert a.format == b.format and a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def point_sets(d):
    coords = st.tuples(*[st.integers(-4, 4)] * d)
    return st.lists(coords, min_size=1, max_size=40)


any_point_set = st.integers(1, 3).flatmap(point_sets)
any_ball = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(0, 6))
)


def factored_matrix(D):
    """The matrix ``killed_solve`` hands to SuperLU for ``D``, factored afresh and not kept."""
    seen = []
    splu = kernel.spla.splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel.spla, "splu", lambda A, **kwargs: seen.append(A) or splu(A, **kwargs))
        mp.setattr(kernel, "_LU", kernel.Memo())
        mp.setattr(kernel.Memo, "held", kernel.Memo.held)
        kernel.killed_solve(D, np.zeros(len(D)))
    (A,) = seen
    return A


def check_domain(D, points):
    interior, outer, inner, nbr = reference_domain(points)
    assert D.interior == interior
    assert D.outer_boundary == outer
    assert tuple(D.interior[i] for i in np.flatnonzero(D.inner_mask(np.arange(len(D))))) == inner
    assert np.array_equal(D.neighbor_index, nbr)
    assert np.array_equal(D.coords, np.array(interior, dtype=np.int64))
    P, system, green_system, exits = reference_operators(points)
    P_new = killed_matrix(D)
    assert_same_sparse(P_new, P)
    factored = factored_matrix(D)
    assert_same_sparse(factored, system)
    assert_same_sparse(factored, green_system)
    w = 1.0 / (2 * D.dimension)
    block = np.zeros((len(interior), len(outer)))
    for i, zs in enumerate(exits):
        block[i, zs] = w
    assert np.array_equal(exit_coupling(D, np.identity(len(outer))), block)
    rng = np.random.default_rng(len(outer))
    phi = rng.standard_normal(len(outer)) * 10.0 ** rng.uniform(-8, 8, len(outer))  # a reordered sum would show
    assert exit_coupling(D, phi).tolist() == [sum_in_order(w * phi[zs]) for zs in exits]
    position = {p: i for i, p in enumerate(interior + outer)}
    assert all(D.closure_index(p) == i for p, i in position.items())
    lo, hi = np.min(interior, axis=0) - 2, np.max(interior, axis=0) + 2
    for p in itertools.product(*[range(int(a), int(b) + 1) for a, b in zip(lo, hi)]):
        if p not in position:
            assert D.closure_index(p) == -1


@given(any_point_set)
@settings(max_examples=60, deadline=None)
def test_point_sets_match_the_loop_construction(points):
    check_domain(FiniteDomain.from_points(points), points)


@given(any_ball)
@settings(max_examples=40, deadline=None)
def test_balls_match_the_loop_construction(ball):
    center, R = ball
    B = make_ball(center, R)
    check_domain(B, list(B.interior))
    assert B.key() == (center, R)
    assert_same_sparse(killed_matrix(B), reference_operators(list(B.interior))[0])


def test_set_with_a_hole():
    ring = [p for p in make_ball((0, 0), 2).interior if p != (0, 0)]
    D = FiniteDomain.from_points(ring)
    assert (0, 0) in D.outer_boundary and (0, 0) not in D
    check_domain(D, ring)


@given(any_point_set, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_laplacian_vector_matches_pointwise_loop(points, seed):
    D = FiniteDomain.from_points(points)
    values = np.random.default_rng(seed).uniform(0.0, 1.0, len(D) + len(D.outer_coords))
    h = LatticeField(D, values)
    ref = [reference_laplacian(h, p) for p in D.interior]
    assert np.array_equal(laplacian(h), np.array(ref))


def test_from_points_rejects_empty_and_mixed_dimensions():
    with pytest.raises(ValueError):
        FiniteDomain.from_points([])
    with pytest.raises(ValueError):
        FiniteDomain.from_points([(0,), (0, 1)])


def assert_restriction_is_from_points(D, indices):
    """``D.restrict(indices)`` is the domain ``from_points`` builds on those points, with read-only arrays."""
    R, F = D.restrict(indices), FiniteDomain.from_points(D.coords[indices])
    for name in ("coords", "outer_coords", "neighbor_index"):
        assert np.array_equal(getattr(R, name), getattr(F, name)), name
        assert getattr(R, name).dtype == getattr(F, name).dtype, name
    closure = F.interior + F.outer_boundary
    assert [R.closure_index(p) for p in closure] == list(range(len(closure)))
    assert all(R.closure_index(p) == -1 for p in D.interior + D.outer_boundary if p not in set(closure))
    for arr in (R.coords, R.outer_coords, R.neighbor_index, R.box):
        assert not arr.flags.writeable
    assert R.key() is None


@pytest.mark.parametrize("d,R", [(1, 9), (2, 6), (3, 4)])
def test_restricting_to_a_sub_ball_complement_is_from_points(d, R):
    B = make_ball((0,) * d, R)
    for seed in range(12):
        A = _random_subset(B, np.random.default_rng([d, seed]))
        complement = np.setdiff1d(np.arange(len(B)), A)
        assert_restriction_is_from_points(B, complement)
        assert_restriction_is_from_points(B, A)
    # any index set: unsorted, with repeats, is its set of points
    shuffled = np.random.default_rng(d).permutation(np.concatenate([complement, complement[:3]]))
    assert_restriction_is_from_points(B, shuffled)


def test_restricting_to_a_complement_with_a_hole_and_to_part_of_an_l_shape():
    B = make_ball((0, 0), 3)
    annulus = np.setdiff1d(np.arange(len(B)), B.within(1))
    assert_restriction_is_from_points(B, annulus)
    Dc = B.restrict(annulus)
    assert (0, 1) in Dc.outer_boundary and (0, 0) not in Dc.outer_boundary + Dc.interior
    L = FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)])
    for subset in ([0, 1, 2], [0, 3, 6], [4], np.arange(len(L))):
        assert_restriction_is_from_points(L, np.asarray(subset))


def test_domain_arrays_are_read_only():
    B = make_ball((0, 0), 2)
    with pytest.raises(ValueError):
        B.neighbor_index[0, 0] = 0
    with pytest.raises(ValueError):
        B.coords[0, 0] = 0


# Each public entry point that takes interior indices, called with an index set.
INDEX_ENTRY_POINTS = {
    "green_solve": lambda B, idx: green_solve(B, columns=idx),
    "iter_killed_vectors": lambda B, idx: next(iter_killed_vectors(B, idx, 3)),
    "inner_mask": lambda B, idx: B.inner_mask(np.asarray(idx)),
    "walk_columns": walk_columns,
    "balayage": lambda B, idx: balayage(idx, random_harmonic(B, seed=0)),
    "restrict": lambda B, idx: B.restrict(idx),
}


@pytest.mark.parametrize("past_end", [False, True], ids=["minus_one", "len"])
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_interior_index_entry_points_reject_outside_indices(entry, past_end):
    # A negative index must not wrap to the end, and len(B) is no bare IndexError.
    B = make_ball((0, 0), 3)
    i = len(B) if past_end else -1
    with pytest.raises(ValueError, match=rf"^{i} is not an interior index \(0 to {len(B) - 1}\)$"):
        INDEX_ENTRY_POINTS[entry](B, [i])
    INDEX_ENTRY_POINTS[entry](B, [len(B) - 1])  # the last interior index is fine


# Index sets that are not sets of interior indices: each is refused, never truncated or read as indices.
NON_INDEX_SETS = {
    "fraction": ([1.7], TypeError, "^interior indices must be integers, not float64$"),
    "mask": ([True, False], TypeError, "^interior indices must be integers, not bool$"),
    "empty": ([], ValueError, "^interior indices must be nonempty$"),
}


@pytest.mark.parametrize("case", list(NON_INDEX_SETS))
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_interior_index_entry_points_reject_non_index_sets(entry, case):
    indices, error, message = NON_INDEX_SETS[case]
    with pytest.raises(error, match=message):
        INDEX_ENTRY_POINTS[entry](make_ball((0, 0), 3), indices)


# Entry points that take a lattice point, a radius or a step count, each called with a non-integer or a
# point of the wrong dimension: (call on B(0, 3) in d=2, the error it must raise).
POINT_CASES = {
    "make_ball_fractional_centre": (lambda B: make_ball((0.5, 0), 2), TypeError),
    "make_ball_fractional_radius": (lambda B: make_ball((0, 0), 2.5), TypeError),
    "from_points_float_array": (lambda B: FiniteDomain.from_points(np.array([[0.0, 0.0], [1.0, 0.0]])), TypeError),
    "index_of": (lambda B: B.index_of((0.9, 0)), TypeError),
    "in": (lambda B: (0.9, 0) in B, TypeError),
    "within_one_dimensional_centre": (lambda B: B.within(1, (2,)), ValueError),
    "within_fractional_centre": (lambda B: B.within(1, (0.6, 1.4)), TypeError),
    "within_no_centre_off_a_ball": (lambda B: FiniteDomain.from_points([(0, 0), (1, 0)]).within(1), ValueError),
    "n_step": (lambda B: n_step((0.6, 0), (0, 0), 2), TypeError),
    "exact_exit_cdf": (lambda B: exact_exit_cdf(B, (0.5, 0), 4), TypeError),
    "dirichlet_mc": (lambda B: dirichlet_mc(B, np.zeros(len(B.outer_coords)), (0.5, 0), 10, 0), TypeError),
    "chain_certificate": (lambda B: chain_certificate((0.5, 0), (40, -40), 9000, 0.8), TypeError),
    "lclt_error_scan_fractional_window": (lambda B: bounds.lclt_error_scan(1, (2.5, 8.9)), TypeError),
    "exactness_audit_fractional_n": (lambda B: exactness_audit(1, 6.5), TypeError),
    "near_diagonal_audit_fractional_n": (lambda B: bounds.near_diagonal_audit(1, 16.5), TypeError),
    "crude_tail_audit_fractional_radius": (lambda B: exit_time.crude_tail_audit(1, 4.5), TypeError),
    "build_ball_chain_fractional_radius": (lambda B: build_ball_chain((0, 0), 40.5, (-20, 0), (20, 0)), TypeError),
}


@pytest.mark.parametrize("case", list(POINT_CASES))
def test_point_entry_points_reject_non_lattice_points(case):
    # (0.5, 0) is not the point (0, 0), and a 1-d centre is not broadcast over d=2.
    call, error = POINT_CASES[case]
    with pytest.raises(error):
        call(make_ball((0, 0), 3))


# Every audit that takes a radius grid, in d=2.
RADIUS_GRID_AUDITS = {
    "chernoff": lambda grid: exit_time.chernoff_audit(2, grid),
    "equivalence": lambda grid: green.equivalence_audit(2, grid, rel_tol=1e-8),
    "killed_lower": lambda grid: green.killed_lower_audit(2, grid),
    "comparability": lambda grid: green.comparability_audit(2, grid),
    "ugi": lambda grid: green.ugi_audit(2, grid),
    "balayage_batch": lambda grid: balayage_batch_audit(2, grid, seed=0, recon_tol=1e-8),
    "small_r": lambda grid: ehi.small_r_bound_audit(2, grid),
    "chained": lambda grid: ehi.chained_harnack_audit(2, grid),
    "oscillation": lambda grid: ehi.oscillation_audit(2, grid, seed=0),
    "stability": lambda grid: ehi.stability_audit(2, grid),
}
BAD_GRIDS = {
    "empty": ([], ValueError, r"^a radius grid must be nonempty with every radius at least 1, not \[\]$"),
    "fractional": ([4.5], TypeError, "cannot be interpreted as an integer"),
    "zero": ([0], ValueError, r"^a radius grid must be nonempty with every radius at least 1, not \[0\]$"),
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS))
@pytest.mark.parametrize("audit", list(RADIUS_GRID_AUDITS))
def test_radius_grid_audits_reject_empty_and_fractional_grids(audit, grid):
    # An empty grid is no pass, R = 4.5 is not audited as R = 4, and R = 0 leaves nothing to audit.
    radii, error, message = BAD_GRIDS[grid]
    with pytest.raises(error, match=message):
        RADIUS_GRID_AUDITS[audit](radii)


@pytest.mark.parametrize("r_max", [0, -3])
def test_the_closed_form_audit_rejects_an_empty_radius_range(r_max):
    # R = 1..r_max is the audit's grid, so r_max <= 0 leaves nothing to check.
    with pytest.raises(ValueError, match=BAD_GRIDS["empty"][2]):
        ehi.d1_closed_form_audit(r_max)
