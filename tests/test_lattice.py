"""Lattice geometry: metric, balls, boundaries, chains."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.kernel import killed_matrix
from harnack.lattice import (
    CHAIN_LENGTH_CAP,
    FiniteDomain,
    ball_count,
    build_ball_chain,
    graph_distance,
    l1_path,
    make_ball,
    neighbors,
)

points = lambda d: st.tuples(*([st.integers(-20, 20)] * d))  # noqa: E731


def inner_boundary(D):
    """Interior points with a neighbour outside, lexicographic, from ``inner_mask``."""
    return tuple(D.interior[i] for i in np.flatnonzero(D.inner_mask()))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(points(d), points(d), points(d))))
def test_graph_distance_is_a_metric(triple):
    x, y, z = triple
    assert graph_distance(x, y) == graph_distance(y, x)
    assert graph_distance(x, y) >= 0
    assert (graph_distance(x, y) == 0) == (x == y)
    assert graph_distance(x, z) <= graph_distance(x, y) + graph_distance(y, z)


@given(st.integers(1, 3).flatmap(points))
def test_neighbors_are_unit_distance(x):
    nbrs = neighbors(x)
    assert len(nbrs) == 2 * len(x)
    assert len(set(nbrs)) == 2 * len(x)
    for y in nbrs:
        assert graph_distance(x, y) == 1


@given(st.integers(0, 9), st.integers(1, 3).flatmap(lambda d: st.tuples(points(d), points(d))))
def test_parity_flips_across_one_step(n, pair):
    # A walk from x can sit at y at time n only if n + dist(x, y) is even.
    x, y = pair
    parity = lambda m, z: (m + graph_distance(x, z)) % 2  # noqa: E731
    for z in neighbors(y):
        assert parity(n, z) != parity(n, y)
    assert parity(n + 1, y) != parity(n, y)


def test_ball_volumes_match_known_counts():
    # 1-d balls are intervals; 2-d diamond count is 2R^2 + 2R + 1.
    assert len(make_ball((0,), 5)) == 11
    assert len(make_ball((0, 0), 8)) == 2 * 64 + 2 * 8 + 1 == 145
    # 3-d, R=2: shells of size 1, 6, 18.
    assert len(make_ball((0, 0, 0), 2)) == 25


@given(st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=30)
def test_ball_count_matches_enumeration(d, R):
    assert ball_count(d, R) == len(make_ball((0,) * d, R))


def test_ball_structure_and_index():
    B = make_ball((1, -2), 3)
    assert B.dimension == 2
    assert B.center == (1, -2)
    for p in B.interior:
        assert graph_distance(p, B.center) <= 3
        assert p in B
        assert B.interior[B.index_of(p)] == p
    assert list(B.interior) == sorted(B.interior)
    for q in B.outer_boundary:
        assert graph_distance(q, B.center) == 4
        assert q not in B
        assert any(graph_distance(q, p) == 1 for p in B.interior)
    for q in inner_boundary(B):
        assert graph_distance(q, B.center) == 3


def test_boundary_operators_agree_with_ball():
    B = make_ball((0, 0), 2)
    D = FiniteDomain.from_points(reversed(B.interior))
    assert D.interior == B.interior
    assert D.outer_boundary == B.outer_boundary
    assert inner_boundary(D) == inner_boundary(B)
    assert B.key() == ((0, 0), 2)
    with pytest.raises(ValueError):
        D.key()  # only balls are memo keys


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(points(d), points(d))))
def test_l1_path_is_a_geodesic(pair):
    a, b = pair
    path = l1_path(a, b)
    assert path[0] == a and path[-1] == b
    assert len(path) == graph_distance(a, b) + 1
    for u, v in zip(path, path[1:]):
        assert graph_distance(u, v) == 1


def test_ball_chain_invariants():
    R = 48
    chain = build_ball_chain((0, 0), R, (-R // 2, 0), (R // 2, 0))
    spacing = R // 8
    assert chain.small_radius == spacing
    assert chain.n_balls <= CHAIN_LENGTH_CAP
    assert graph_distance((-R // 2, 0), chain.centers[0]) <= spacing
    assert graph_distance((R // 2, 0), chain.centers[-1]) <= spacing
    for w, c1, c2 in zip(chain.overlap_points, chain.centers, chain.centers[1:]):
        assert graph_distance(w, c1) <= spacing
        assert graph_distance(w, c2) <= spacing
    for c in chain.centers:
        assert graph_distance(c, (0, 0)) + R // 2 <= R


def test_ball_chain_rejects_small_radii_and_far_endpoints():
    with pytest.raises(ValueError):
        build_ball_chain((0, 0), 32, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        build_ball_chain((0, 0), 48, (0, 0), (47, 0))


def test_volume_audit_passes():
    # V1 = min_r |B(0, r)| / r^d over 1 <= r <= 12 is positive, at least the
    # continuum l1-ball constant 2^d/d!, and (for d = 2) at most 2d.
    for d in (1, 2, 3):
        v1 = min(len(make_ball((0,) * d, r)) / r**d for r in range(1, 13))
        assert v1 >= 2**d / math.factorial(d)
        if d == 2:
            assert v1 <= 2 * d


def assert_symmetries(D):
    """Row 0 is the identity, every row permutes the interior and keeps P^D."""
    maps = D.symmetries()
    assert np.array_equal(maps[0], np.arange(len(D)))
    assert len({tuple(row) for row in maps.tolist()}) == len(maps)
    P = killed_matrix(D).toarray()
    for row in maps:
        assert np.array_equal(np.sort(row), np.arange(len(D)))
        assert np.array_equal(P[np.ix_(row, row)], P)
    return maps


@pytest.mark.parametrize("d,R", [(1, 6), (2, 5), (3, 4)])
def test_origin_ball_has_the_full_group_and_one_orbit_per_sorted_abs(d, R):
    B = make_ball((0,) * d, R)
    maps = assert_symmetries(B)
    assert len(maps) == 2**d * math.factorial(d)
    rep = maps.min(axis=0)
    keys = [tuple(sorted(abs(c) for c in x)) for x in B.interior]
    assert len(set(rep.tolist())) == len(set(keys))
    for i, j in itertools.combinations(range(len(B)), 2):
        assert (rep[i] == rep[j]) == (keys[i] == keys[j])


@given(
    st.integers(1, 2),
    st.integers(1, 4),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=25, deadline=None)
def test_shifted_ball_finds_its_group_about_its_center(d, R, center):
    B = make_ball(center[:d], R)
    maps = assert_symmetries(B)
    c = np.array(B.center)
    want = set()
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            image = (B.coords - c)[:, perm] * np.array(signs) + c
            want.add(tuple(B.index_of(tuple(p)) for p in image.tolist()))
    assert {tuple(row) for row in maps.tolist()} == want


@pytest.mark.parametrize(
    "points,images",
    [
        ([(0,), (1,)], [[0, 1], [1, 0]]),  # centre 1/2
        ([(0, 0), (0, 1), (1, 0), (1, 1)], None),  # centre (1/2, 1/2): all 8 maps
        ([(x, y) for x in range(2) for y in range(3)], [[0, 1, 2, 3, 4, 5], [2, 1, 0, 5, 4, 3], [3, 4, 5, 0, 1, 2], [5, 4, 3, 2, 1, 0]]),
    ],
)
def test_half_integer_centres_find_their_reflections(points, images):
    D = FiniteDomain.from_points(points)
    maps = assert_symmetries(D)
    if images is None:
        assert len(maps) == 8
        assert (maps.min(axis=0) == 0).all()
    else:
        assert sorted(maps.tolist()) == images


def test_asymmetric_domain_has_the_identity_alone():
    L = FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)])
    assert np.array_equal(assert_symmetries(L), [np.arange(len(L))])
