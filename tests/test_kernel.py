"""Exact n-step kernels: DP, closed forms, killed chains, the lazy walk."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack import bounds, kernel
from harnack.cache import KernelCache
from harnack.kernel import (
    _binomial,
    exactness_audit,
    free_field,
    iter_free_fields,
    iter_killed_vectors,
    killed_matrix,
    killed_solve,
    lazy_walk,
    n_step,
    projection_audit,
    walk_columns,
    walk_pmf,
)
from harnack.exit_time import exact_exit_cdf
from harnack.lattice import FiniteDomain, graph_distance, make_ball


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
        assert field.shape == (n + 1,) * d
        assert abs(mirrored(field).sum() - 1.0) <= 1e-13
        # wrong-parity entries are exactly zero
        grids = np.meshgrid(*([np.arange(n + 1)] * d), indexing="ij")
        dist = sum(grids)
        assert not field[(dist + n) % 2 == 1].any()


def full_box_step(arr, d):
    """One free step on the centred box, growing it by one cell per side: the unfolded reference DP."""
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


def box_fields(d, n_max):
    """Yield ``(n, p_n(0, .))`` over the box ``{-n..n}^d`` by the full-box DP: the box oracle of every test."""
    box = np.ones((1,) * d)
    yield 0, box
    for n in range(1, n_max + 1):
        box = full_box_step(box, d)
        yield n, box


def mirrored(field):
    """The box ``{-n..n}^d`` read off an orthant field: cell y is the orthant's cell |y|."""
    n = field.shape[0] - 1
    return field[np.ix_(*[np.abs(np.arange(-n, n + 1))] * field.ndim)]


@pytest.mark.parametrize("d, n_max", [(1, 100), (2, 100), (3, 65)])
def test_folded_fields_equal_the_full_box_dp(d, n_max):
    rng = np.random.default_rng(d)
    for (n, field), (_, box) in zip(iter_free_fields(d, n_max), box_fields(d, n_max)):
        assert field.shape == (n + 1,) * d
        assert mirrored(field).tobytes() == box.tobytes(), n
        assert free_field(d, n).tobytes() == field.tobytes(), n
        for offset in rng.integers(-n, n + 1, size=(8, d)).tolist():
            value = n_step((0,) * d, offset, n)
            assert value == box[tuple(o + n for o in offset)]
            for axis in range(d):
                flipped = list(offset)
                flipped[axis] = -flipped[axis]
                assert n_step((0,) * d, flipped, n) == value


def test_free_field_audits_share_one_progression(monkeypatch):
    steps = []
    step = kernel._orthant_step

    def counted(arr, d):
        steps.append(arr.shape[0])
        return step(arr, d)

    monkeypatch.setattr(kernel, "_FREE", kernel.Memo())
    monkeypatch.setattr(kernel, "_orthant_step", counted)
    assert exactness_audit(2, 16).passed
    assert bounds.near_diagonal_audit(2, 16).passed
    assert bounds.gaussian_lower_audit(2, 16).passed
    assert bounds.gaussian_upper_audit(2, 16).passed
    assert bounds.lclt_error_scan(2, (8, 16)).passed
    assert steps == list(range(1, 18))  # one pass to n = 17, for near_diagonal's pairs


def closed_form_n_step(z, n):
    """``p_n(0, z)`` for d in {1, 2} from the correctly rounded 1-d pmf.

    d=2 uses the independence of the rotated coordinates (z1+z2, z1-z2): the
    binary64 product of two correctly rounded factors.
    """
    if len(z) == 1:
        return float(walk_pmf(n, z[0]))
    return float(walk_pmf(n, z[0] + z[1]) * walk_pmf(n, z[0] - z[1]))


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
        assert n_step((0,) * d, y, n) + n_step((0,) * d, y, n + 1) > 0.0


def test_killed_chain_matches_hand_dp():
    # B(0,1) in d=1: interior (-1, 0, 1); mass leaving the interval dies.
    B = make_ball((0,), 1)
    chain = {n: block[:, 0] for n, block in iter_killed_vectors(B, [B.index_of((0,))], 4)}
    assert list(chain[0]) == [0.0, 1.0, 0.0]
    assert list(chain[1]) == [0.5, 0.0, 0.5]
    assert list(chain[2]) == [0.0, 0.5, 0.0]
    assert list(chain[3]) == [0.25, 0.0, 0.25]
    assert list(chain[4]) == [0.0, 0.25, 0.0]
    cdf = exact_exit_cdf(B, (0,), 4)
    assert 1 - cdf[2] == 0.5
    assert 1 - cdf[4] == 0.25


@pytest.mark.parametrize("d, R, n_max", [(1, 10, 53), (2, 6, 26)])
def test_killed_walk_is_the_exact_rational_walk_bit_for_bit(d, R, n_max):
    # In d <= 2, p_n^B(x, y) is a multiple of (2d)^-n in [0, 1], exact in
    # binary64 while (2d)^n <= 2^53.  The exact walk counts the paths of n
    # steps inside the ball, neighbours taken from the graph metric.
    points = [p for p in itertools.product(range(-R, R + 1), repeat=d) if sum(map(abs, p)) <= R]
    paths = np.array([[graph_distance(p, q) == 1 for q in points] for p in points], dtype=np.int64)
    B = make_ball((0,) * d, R)
    assert [tuple(p) for p in B.interior] == points
    starts = np.arange(len(points))
    counts = np.zeros((len(points), walk_columns(B, starts).max() + 1), dtype=np.int64)
    counts[starts, walk_columns(B, starts)] = 1  # an even and an odd start share a column
    for n, block in iter_killed_vectors(B, starts, n_max):
        assert list(map(Fraction, block.ravel().tolist())) == [
            Fraction(c, (2 * d) ** n) for c in counts.ravel().tolist()
        ], f"step {n}"
        counts = paths @ counts  # below 2^53: at most (2d)^n paths end anywhere


@pytest.mark.parametrize("d,R", [(1, 3), (2, 3), (3, 2)])
def test_killed_block_columns_match_single_start_iteration(d, R):
    B = make_ball((0,) * d, R)
    P = killed_matrix(B)
    parity = B.coords.sum(axis=1) % 2
    for c in (0, 1):
        members = np.flatnonzero(parity == c)
        starts = [members[0], members[len(members) // 2], members[-1]]
        vecs = np.eye(len(B))[:, starts].T.copy()
        for n, block in iter_killed_vectors(B, starts, 12):
            for j, vec in enumerate(vecs):
                assert np.array_equal(block[:, j], vec)
            vecs = [P @ vec for vec in vecs]
    with pytest.raises(ValueError):
        exact_exit_cdf(B, (0,) * d, -1)
    with pytest.raises(ValueError):
        exact_exit_cdf(B, (R + 1,) + (0,) * (d - 1), 2)  # outside the ball


def full_block_iterates(B, starts, n_max):
    """The killed iteration over the whole interior, the reference for the split one."""
    block = np.zeros((len(B), len(starts)))
    block[starts, np.arange(len(starts))] = 1.0
    P = killed_matrix(B)
    yield 0, block
    for n in range(1, n_max + 1):
        block = P @ block
        yield n, block


def assert_stacked_iterates_equal_the_full_block(D, starts, n_max):
    """Every start's live entries, in its class's column, bit for bit; all else exactly zero."""
    starts = np.asarray(starts)
    parity = D.coords.sum(axis=1) % 2
    start_parity = parity[starts]
    column = np.empty(len(starts), dtype=int)  # the j-th start of its class walks in column j
    for c in (0, 1):
        column[start_parity == c] = np.arange((start_parity == c).sum())
    width = column.max() + 1
    stacked = iter_killed_vectors(D, starts, n_max)
    reference = full_block_iterates(D, starts, n_max)
    for (n, block), (m, full) in zip(stacked, reference):
        assert n == m
        expected = np.zeros((len(D), width))
        for i, j in enumerate(column):
            live = parity == (start_parity[i] + n) % 2
            assert not full[~live, i].any()  # the off-class rows are exact zeros
            expected[live, j] = full[live, i]
        assert np.array_equal(block, expected)  # bit for bit, padding exactly zero
    assert n == n_max


@pytest.mark.parametrize("d", [1, 2, 3])
def test_live_class_iterates_equal_the_full_block(d):
    for R in range(9):
        B = make_ball((0,) * d, R)
        even, odd = (np.flatnonzero(B.coords.sum(axis=1) % 2 == c) for c in (0, 1))
        # one class alone, and both classes in interior order with unequal counts
        cases = [members[:: max(1, len(members) // 4)] for members in (even, odd) if len(members)]
        if len(odd):
            cases.append(np.sort(np.concatenate([even[:: max(1, len(even) // 5)], odd[:: max(1, len(odd) // 2)]])))
        for starts in cases:
            assert_stacked_iterates_equal_the_full_block(B, starts, 2 * R + 3)


def test_stacked_iterates_on_domains_that_are_not_balls():
    L = FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)])
    rectangle = FiniteDomain.from_points([(x, y) for x in range(2) for y in range(3)])
    for D in (L, rectangle):
        everything = np.arange(len(D))
        for starts in (everything, everything[::-1], everything[:1], everything[1:2], everything[2:]):
            assert_stacked_iterates_equal_the_full_block(D, starts, 9)


def test_empty_starts_are_rejected_and_mixed_starts_pair_up():
    B = make_ball((0, 0), 3)
    parity = B.coords.sum(axis=1) % 2
    even, odd = (np.flatnonzero(parity == c) for c in (0, 1))
    with pytest.raises(ValueError):
        next(iter_killed_vectors(B, [], 4))
    # an odd and an even start share column 0: it is the sum of their own
    # iterates, one of which is an exact zero on every row
    mixed = iter_killed_vectors(B, [odd[0], even[0]], 4)
    alone = zip(iter_killed_vectors(B, [even[0]], 4), iter_killed_vectors(B, [odd[0]], 4))
    for (_, block), ((_, from_even), (_, from_odd)) in zip(mixed, alone):
        assert block.shape == (len(B), 1)
        assert np.array_equal(block, from_even + from_odd)
    # in mixed order, three even starts and two odd: each start's column is
    # its rank among the given starts of its class, and walks that start
    starts = [odd[5], even[3], even[0], odd[1], even[7]]
    column = walk_columns(B, starts)
    assert column.tolist() == [0, 0, 1, 1, 2]
    solo = [iter_killed_vectors(B, [start], 4) for start in starts]
    for n, block in iter_killed_vectors(B, starts, 4):
        assert block.shape == (len(B), 3)
        for start, j, own_walk in zip(starts, column, solo):
            live = parity == (parity[start] + n) % 2
            assert np.array_equal(block[live, j], next(own_walk)[1][live, 0])


def test_walk_pmf_is_the_correctly_rounded_binomial():
    rng = np.random.default_rng(20_000)
    ns = [0, 1, 2, 3, 17, 64, 1075, 1076, 5000, 20_000] + rng.integers(0, 20_001, 6).tolist()
    for n in ns:
        near = rng.integers(-3 * int(math.isqrt(n + 1)) - 2, 3 * int(math.isqrt(n + 1)) + 3, 40)
        far = rng.integers(-n - 4, n + 5, 40)
        sites = np.concatenate([near, far, [-n - 1, -n, n, n + 1, n + 7]])
        got = walk_pmf(n, sites)
        for site, value in zip(sites.tolist(), got.tolist()):
            if abs(site) > n or (n + site) % 2:
                assert value == 0.0, (n, site)
            else:
                want = float(Fraction(math.comb(n, (n + site) // 2), 2**n))
                assert value == want, (n, site)
    # any array shape; a scalar site gives a 0-d array
    assert walk_pmf(6, [[0, 1], [2, -6]]).tolist() == [[20 / 64, 0.0], [15 / 64, 1 / 64]]
    assert float(walk_pmf(2, 0)) == 0.5
    with pytest.raises(ValueError):
        walk_pmf(-1, [0])


def test_prime_power_binomial_equals_math_comb():
    for n in range(257):
        assert [_binomial(n, k) for k in range(n + 1)] == [math.comb(n, k) for k in range(n + 1)]
    for n in (9000, 9001, 18197, 20000):
        for k in (0, 1, n // 2, n - 1, n):
            assert _binomial(n, k) == math.comb(n, k), (n, k)
    for n in (0, 1, 7, 18197):
        assert _binomial(n, -1) == _binomial(n, n + 1) == _binomial(n, -n - 5) == 0
    n = 20_000
    sites = np.array([0, 2, -2, 150, -302, 19_998, -20_000, 20_000])
    want = [float(Fraction(math.comb(n, (n + site) // 2), 2**n)) for site in sites.tolist()]
    assert walk_pmf(n, sites).tolist() == want


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (
        "import sys, harnack, harnack.cli, harnack.cache; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
    # `cache list` decodes files without solving anything, so it loads no SciPy
    KernelCache(tmp_path).put_free(1, 2, free_field(1, 2))
    cmd = [sys.executable, "-X", "importtime", "-m", "harnack", "cache", "list", "--cache-dir", str(tmp_path)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
    assert "free-d1-n2.zdk" in out.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if "|" in line]
    assert "harnack.cache" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_package_names_resolve_on_first_access():
    import harnack
    from harnack import green

    quickstart = {"make_ball", "green_solve", "n_step", "harnack_constant_exact"}
    modules = {"lattice", "kernel", "exit_time", "green", "bounds", "harmonic", "ehi", "cache", "report"}
    assert sorted(harnack.__all__) == sorted({"__version__"} | quickstart | modules)
    namespace = {}
    exec("from harnack import *", namespace)
    assert set(harnack.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(harnack, name) for name in harnack.__all__)
    assert harnack.green_solve is green.green_solve
    with pytest.raises(AttributeError):
        harnack.no_such_name


def test_killed_matrix_is_substochastic():
    B = make_ball((0, 0), 3)
    P = killed_matrix(B)
    col_sums = np.asarray(P.sum(axis=0)).ravel()
    assert (col_sums <= 1.0 + 1e-15).all()
    inner = [i for i, p in enumerate(B.interior) if graph_distance(p, B.center) < 3]
    assert np.allclose(col_sums[inner], 1.0)


@pytest.mark.parametrize("d, R", [(1, 8), (2, 6), (3, 4)])
def test_a_solve_assembles_its_walk_once(d, R, monkeypatch):
    # a domain's one P^D feeds both its factor and its certificate
    built = []
    build = kernel._walk_operator

    def counted(D):
        built.append(len(D))
        return build(D)

    monkeypatch.setattr(kernel, "_KILLED", kernel.Memo())
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())
    monkeypatch.setattr(kernel, "_walk_operator", counted)
    B = make_ball((0,) * d, R)
    complement = B.restrict(np.setdiff1d(np.arange(len(B)), B.within(R // 2)))
    killed_solve(complement, np.ones(len(complement)))
    assert built == [len(complement)]
    P = killed_matrix(B)
    killed_solve(B, np.ones((len(B), 2)))
    assert built == [len(complement), len(B)] and killed_matrix(B) is P


@given(st.integers(1, 2), st.integers(1, 4), st.integers(0, 12))
@settings(max_examples=40)
def test_survival_is_nonincreasing(d, R, n):
    cdf = exact_exit_cdf(make_ball((0,) * d, R), (0,) * d, n + 1)
    assert 1 - cdf[n] >= 1 - cdf[n + 1] - 1e-15


def laws(d, S, n_max):
    return [law for _, law in lazy_walk(d, S, n_max)]


def test_lazy_distribution_mass_and_degenerate_case():
    for d in (1, 2, 3):
        walked = laws(d, 20, 20)
        for n in (0, 1, 7, 20):
            assert abs(walked[n].sum() - 1.0) <= 1e-13
    # d=1: hold probability zero, so the lazy walk *is* the simple walk.
    *_, (_, box) = box_fields(1, 9)
    assert np.array_equal(laws(1, 9, 9)[9], box)
    assert np.array_equal(laws(1, 12, 9)[9][3:-3], box)  # the padding adds nothing


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_lazy_law_is_its_own_mirror_bit_for_bit(d):
    # each step adds both neighbours in one order, so no law leans to one side
    for n, law in lazy_walk(d, 64, 64):
        assert np.array_equal(law, law[::-1]), n
    assert laws(d, 0, 3)[3].tolist() == [pytest.approx(((d - 1) / d) ** 3)]  # one cell, no neighbours


def test_projection_of_planar_kernel_is_lazy_walk():
    walked = laws(2, 16, 16)
    boxes = dict(box_fields(2, 16))
    for n in (1, 2, 9, 16):
        marginal = boxes[n].sum(axis=1)
        assert np.abs(marginal - walked[n][16 - n : 16 + n + 1]).max() <= 1e-15


def test_lazy_exit_cdf_monotone_and_bounded():
    values = [1.0 - law.sum() for law in laws(2, 3, 36)[::4]]
    assert values[0] == 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= 1.0


def test_the_lazy_walk_kills_outside_its_interval_and_checks_its_input():
    walked = laws(1, 2, 3)
    assert [len(law) for law in walked] == [5] * 4
    assert walked[3].sum() == 0.75  # of the 8 paths, only RRR and LLL leave [-2, 2]
    for args in ((0, 2, 3), (1, -1, 3), (1, 2, -1)):
        with pytest.raises(ValueError):
            next(lazy_walk(*args))


def test_audits_pass():
    assert exactness_audit(1, 32).passed
    assert exactness_audit(3, 12).passed
    assert projection_audit(24).passed


def test_exactness_mass_is_the_correctly_rounded_exact_box_mass():
    # each row's deviation is |float(sum over the box) - 1|, the sum taken in
    # exact rationals over the full-box DP: the orthant's sum of v * 2^k, k
    # the cell's nonzero coordinates, rounded once
    rows = exactness_audit(3, 12).rows
    for (n, box), row in zip(box_fields(3, 12), rows, strict=True):
        exact = sum(map(Fraction, box.ravel().tolist()))
        assert row == {"n": n, "mass_deviation": abs(float(exact) - 1.0)}, n


def test_exactness_audit_rejects_tiny_ranges():
    with pytest.raises(ValueError):
        exactness_audit(2, 1)


def test_memoized_arrays_are_read_only():
    before = n_step((0, 0), (0, 1), 3)
    with pytest.raises(ValueError):
        free_field(2, 3)[3, 2] = 99.0
    for _, field in iter_free_fields(2, 3):
        with pytest.raises(ValueError):
            field[(0,) * field.ndim] = 99.0
    assert n_step((0, 0), (0, 1), 3) == before == 0.140625
    with pytest.raises(ValueError):
        free_field(3, 2)[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        killed_matrix(make_ball((0, 0), 2)).data[0] = 1.0
