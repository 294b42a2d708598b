"""The domain's neighbour-index array and the operators built from it.

The loop constructions over :func:`neighbors` below are the reference: the
vectorized index, both boundaries, the killed one-step matrix, the ``I - P``
system that ``kernel`` factors from it and the boundary coupling must equal
them exactly (same sparse ``indices`` and ``data``, same exit order).
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.harmonic import LatticeField, laplacian
from harnack.kernel import exit_steps, killed_matrix
from harnack.lattice import FiniteDomain, make_ball, neighbors


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
    """Killed matrix, both ``I - P`` assemblies and the exit steps, by loops."""
    interior, outer, _, _ = reference_domain(points)
    m, d = len(interior), len(interior[0])
    w = 1.0 / (2 * d)
    index = {p: i for i, p in enumerate(interior + outer)}
    rows, cols = [], []
    rows_i, cols_i, vals_i = [], [], []
    rows_b, cols_b = [], []
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
                rows_b.append(i)
                cols_b.append(j - m)
    P = sp.csr_matrix((np.full(len(rows), w), (rows, cols)), shape=(m, m))
    system = sp.csc_matrix((vals_i, (rows_i, cols_i)), shape=(m, m))
    green_system = (sp.identity(m, format="csc") - P).tocsc()
    return P, system, green_system, np.array(rows_b), np.array(cols_b)


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


def check_domain(D, points):
    interior, outer, inner, nbr = reference_domain(points)
    assert D.interior == interior
    assert D.outer_boundary == outer
    assert tuple(D.interior[i] for i in np.flatnonzero(D.inner_mask())) == inner
    assert np.array_equal(D.neighbor_index, nbr)
    assert np.array_equal(D.coords, np.array(interior, dtype=np.int64))
    P, system, green_system, rows_b, cols_b = reference_operators(points)
    P_new = killed_matrix(D)
    rows_new, cols_new, w = exit_steps(D)
    assert w == 1.0 / (2 * D.dimension)
    assert_same_sparse(P_new, P)
    factored = (sp.identity(len(D), format="csc") - P_new).tocsc()  # what killed_solve factors
    assert_same_sparse(factored, system)
    assert_same_sparse(factored, green_system)
    assert np.array_equal(rows_new, rows_b) and np.array_equal(cols_new, cols_b)
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
    assert np.array_equal(laplacian(h, D), np.array(ref))


def test_from_points_rejects_empty_and_mixed_dimensions():
    with pytest.raises(ValueError):
        FiniteDomain.from_points([])
    with pytest.raises(ValueError):
        FiniteDomain.from_points([(0,), (0, 1)])


def test_domain_arrays_are_read_only():
    B = make_ball((0, 0), 2)
    with pytest.raises(ValueError):
        B.neighbor_index[0, 0] = 0
    with pytest.raises(ValueError):
        B.coords[0, 0] = 0
