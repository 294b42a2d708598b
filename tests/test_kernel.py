"""Exact n-step kernels: DP, closed forms, killed chains, the lazy walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.kernel import (
    closed_form_n_step,
    exactness_audit,
    free_field,
    iter_killed_vectors,
    killed_matrix,
    killed_point_mass,
    lazy1d_exit_cdf,
    lazy_distribution,
    n_step,
    n_step_pair,
    projection_audit,
    survival,
)
from harnack.lattice import graph_distance, make_ball


def brute_two_step(d):
    """Enumerate all (2d)^2 two-step paths from the origin."""
    from collections import Counter
    from itertools import product

    moves = []
    for axis in range(d):
        for sign in (-1, 1):
            step = [0] * d
            step[axis] = sign
            moves.append(tuple(step))
    hits = Counter()
    for m1, m2 in product(moves, repeat=2):
        hits[tuple(a + b for a, b in zip(m1, m2))] += 1
    return {y: c / (2 * d) ** 2 for y, c in hits.items()}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_step_kernel_matches_path_enumeration(d):
    expected = brute_two_step(d)
    for y, p in expected.items():
        assert n_step((0,) * d, y, 2) == p
    # Exact return probability: 2d paths out of (2d)^2 come straight back.
    assert n_step((0,) * d, (0,) * d, 2) == 1.0 / (2 * d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_field_mass_and_parity(d):
    for n in (0, 1, 5, 12):
        field = free_field(d, n)
        assert abs(field.sum() - 1.0) <= 1e-13
        # wrong-parity entries are exactly zero
        grids = np.meshgrid(*([np.arange(-n, n + 1)] * d), indexing="ij")
        dist = sum(np.abs(g) for g in grids)
        assert not field[(dist + n) % 2 == 1].any()


@given(
    st.integers(1, 2),
    st.integers(0, 24),
    st.tuples(st.integers(-24, 24), st.integers(-24, 24)),
)
@settings(max_examples=60)
def test_closed_form_agrees_with_dp(d, n, point):
    z = point[:d]
    dp = n_step((0,) * d, z, n)
    exact = closed_form_n_step(z, n)
    assert exact == pytest.approx(dp, rel=1e-12, abs=1e-300)
    if (n + graph_distance((0,) * d, z)) % 2 == 1:
        assert exact == 0.0 == dp


@given(st.integers(1, 3), st.integers(0, 10))
@settings(max_examples=40)
def test_pair_kernel_positive_within_range(d, n):
    y = (n // 2,) + (0,) * (d - 1)
    if graph_distance((0,) * d, y) <= n:
        assert n_step_pair((0,) * d, y, n) > 0.0


def test_killed_chain_matches_hand_dp():
    # B(0,1) in d=1: interior (-1, 0, 1); mass leaving the interval dies.
    B = make_ball((0,), 1)
    start = killed_point_mass((0,), B).values
    assert list(start) == [0.0, 1.0, 0.0]
    chain = dict(iter_killed_vectors((0,), B, 4))
    assert list(chain[1]) == [0.5, 0.0, 0.5]
    assert list(chain[2]) == [0.0, 0.5, 0.0]
    assert list(chain[3]) == [0.25, 0.0, 0.25]
    assert list(chain[4]) == [0.0, 0.25, 0.0]
    assert survival((0,), B, 2) == 0.5
    assert survival((0,), B, 4) == 0.25


def test_killed_matrix_is_substochastic():
    B = make_ball((0, 0), 3)
    P = killed_matrix(B)
    col_sums = np.asarray(P.sum(axis=0)).ravel()
    assert (col_sums <= 1.0 + 1e-15).all()
    inner = [i for i, p in enumerate(B.interior) if graph_distance(p, B.center) < 3]
    assert np.allclose(col_sums[inner], 1.0)


@given(st.integers(1, 2), st.integers(1, 4), st.integers(0, 12))
@settings(max_examples=40)
def test_survival_is_nonincreasing(d, R, n):
    B = make_ball((0,) * d, R)
    assert survival((0,) * d, B, n) >= survival((0,) * d, B, n + 1) - 1e-15


def test_lazy_distribution_mass_and_degenerate_case():
    for d in (1, 2, 3):
        for n in (0, 1, 7, 20):
            vec = lazy_distribution(n, d)
            assert abs(vec.sum() - 1.0) <= 1e-13
    # d=1: hold probability zero, so the lazy walk *is* the simple walk.
    assert np.array_equal(lazy_distribution(9, 1), free_field(1, 9))


def test_projection_of_planar_kernel_is_lazy_walk():
    for n in (1, 2, 9, 16):
        marginal = free_field(2, n).sum(axis=1)
        assert np.abs(marginal - lazy_distribution(n, 2)).max() <= 1e-15


def test_lazy_exit_cdf_monotone_and_bounded():
    values = [lazy1d_exit_cdf(3, n, 2) for n in range(0, 40, 4)]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= 1.0


def test_audits_pass():
    assert exactness_audit(1, 32).passed
    assert exactness_audit(3, 12).passed
    assert projection_audit(24).passed


def test_exactness_audit_rejects_tiny_ranges():
    with pytest.raises(ValueError):
        exactness_audit(2, 1)


def test_memoized_arrays_are_read_only():
    from harnack.ehi import hitting_kernels
    from harnack.green import green_solve

    before = n_step((0, 0), (0, 1), 3)
    with pytest.raises(ValueError):
        free_field(2, 3)[3, 4] = 99.0
    assert n_step((0, 0), (0, 1), 3) == before == 0.140625
    with pytest.raises(ValueError):
        free_field(3, 2)[0, 0, 0] = 1.0  # beyond the retained progression
    with pytest.raises(ValueError):
        green_solve(make_ball((0, 0), 2)).values[0, 0] = 0.0
    with pytest.raises(ValueError):
        hitting_kernels(2, 2)[1][0, 0] = 0.0
    with pytest.raises(ValueError):
        killed_matrix(make_ball((0, 0), 2)).data[0] = 1.0
