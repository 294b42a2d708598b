"""Green tables: dual-route agreement, identities, interior comparisons."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack import green, kernel
from harnack.green import (
    _WINDOW,
    comparability_audit,
    comparability_ratio,
    equivalence_audit,
    green_solve,
    green_table_series,
    killed_lower_audit,
    ugi_audit,
)
from harnack.harmonic import harmonic_measure_matrix
from harnack.kernel import RESIDUAL_TOL, killed_matrix, walk_columns
from harnack.lattice import FiniteDomain, graph_distance, make_ball

# Expected visit counts on the 3-point interval, from inverting the 3x3
# system by hand: (I - P)^-1 with P the nearest-neighbour half matrix.
INTERVAL_TABLE = [[1.5, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 1.5]]


def test_interval_table_matches_hand_inverse():
    table = green_solve(make_ball((0,), 1))
    assert np.abs(table - INTERVAL_TABLE).max() <= 1e-12
    series = green_table_series(make_ball((0,), 1), tol=1e-14)
    assert np.abs(series.values - INTERVAL_TABLE).max() <= 1e-12


@given(
    st.integers(1, 2),
    st.integers(1, 4),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@settings(max_examples=25, deadline=None)
def test_series_equals_solve_on_shifted_balls(d, R, center):
    B = make_ball(center[:d], R)
    solved = green_solve(B)
    series = green_table_series(B, tol=1e-12)
    assert np.abs(series.values - solved).max() <= 1e-9
    assert not series.meta["truncated"]
    assert series.meta["terms"] % _WINDOW == 0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_series_refuses_a_tolerance_no_certificate_meets(tol):
    with pytest.raises(ValueError, match="positive finite"):
        green_table_series(make_ball((0, 0), 4), tol)


def test_solve_satisfies_defining_identity():
    B = make_ball((0, 0), 4)
    G = green_solve(B)
    P = killed_matrix(B).toarray()
    residual = np.abs((np.eye(len(B)) - P) @ G - np.eye(len(B))).max()
    assert residual <= 1e-10


def test_table_symmetry_positivity_and_diagonal_dominance():
    B = make_ball((0, 0), 4)
    G = green_solve(B)
    assert (G > 0.0).all()
    assert np.abs(G - G.T).max() <= 1e-12
    # Visits to y are maximised from y itself (strong maximum principle).
    assert (G.max(axis=0) == G.diagonal()).all()


def green_value_floor(d, R):
    """Provable floor for every Green entry of ``B(x0, R)``.

    Any two ball points are joined by an l1 geodesic inside the ball, so
    ``g_B(x, y) >= p_dist^B(x, y) >= (2d)^{-dist} >= (2d)^{-2R}``.
    """
    return float((2 * d) ** (-2 * R))


@pytest.mark.parametrize("d,R", [(1, 4), (1, 8), (2, 4), (2, 8)])
def test_floor_really_is_a_lower_bound(d, R):
    B = make_ball((0,) * d, R)
    assert green_solve(B).min() >= green_value_floor(d, R)


def test_row_series_matches_table_column():
    B = make_ball((0, 0), 3)
    series = green_table_series(B, tol=1e-12)
    column = series.values[:, B.index_of((1, 1))]
    table = green_solve(B)
    assert np.abs(column - table[:, B.index_of((1, 1))]).max() <= 1e-9
    assert not series.meta["truncated"]
    assert series.meta["terms"] > 0


def exit_time_cap(D):
    """``(r+1)^2``: r is the largest l1 distance of ``D``'s points from its bounding box's midpoint rounded down."""
    mid = [(min(axis) + max(axis)) // 2 for axis in zip(*D.interior)]
    return (max(sum(abs(a - m) for a, m in zip(p, mid)) for p in D.interior) + 1) ** 2


def series_reference(B, tol, walked):
    """The series over full-interior blocks, every start walked in its own column: (table, terms, tail bound).

    One step at a time; at each window end n the tail bound is
    ``exit_time_cap(B)`` times the largest full-interior column sum (rows
    added in index order) over the ``walked`` starts, and the walk stops at
    the first window end where it is below ``tol`` (the bound stays ``inf``
    if none is).
    """
    P, cap = killed_matrix(B), exit_time_cap(B)
    current = np.eye(len(B))
    table = current.copy()
    for n in range(1, green.SERIES_MAX_STEPS + 1):
        current = P @ current
        table += current
        if n % _WINDOW == 0 and cap * current.sum(axis=0)[walked].max() < tol:
            return table, n, cap * current.sum(axis=0)[walked].max()
    return table, n, math.inf


def assert_orbit_series(D, tol=1e-12):
    """Walked columns are the all-starts series bit for bit; the rest are their exact images.

    Column j is the image of its representative r under the first map h with
    ``h j = r``, so ``G[:, j]`` must equal the reference's ``G[h x, r]``
    exactly.  The series stops where the reference does, on the same tail
    bound over the walked (representative) starts.
    """
    series = green_table_series(D, tol=tol)
    maps = D.symmetries()[:, : len(D)]
    rep = D.representatives()[: len(D)]
    walked = np.flatnonzero(rep == np.arange(len(D)))
    table, terms, tail_bound = series_reference(D, tol, walked)
    assert np.array_equal(series.values[:, walked], table[:, walked])
    for j in np.flatnonzero(rep != np.arange(len(D))):
        h = np.flatnonzero(maps[:, j] == rep[j])[0]
        assert np.array_equal(series.values[:, j], table[maps[h], rep[j]])
    assert series.meta["terms"] == terms
    assert series.meta["tail_bound"] == tail_bound
    return series, table


@pytest.mark.parametrize(
    "center,radii", [((0,), [0, 1, 2, 5, 8, 16]), ((0, 0), [0, 1, 2, 4, 6]), ((1, 0), [3]), ((0, 0, 0), [1, 2, 3])]
)
def test_parity_split_series_equals_full_block_series(center, radii):
    for R in radii:
        assert_orbit_series(make_ball(center, R))


SERIES_TERMS = {  # green_table_series(B(0, R), tol=1e-12).meta["terms"] for R = 0..8
    1: [64, 128, 256, 448, 640, 960, 1280, 1664, 2112],
    2: [64, 64, 128, 256, 320, 512, 640, 832, 1088],
    3: [64, 64, 128, 128, 256, 320, 448, 576, 704],
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_series_terms_are_pinned(d):
    terms = [green_table_series(make_ball((0,) * d, R), tol=1e-12).meta["terms"] for R in range(9)]
    assert terms == SERIES_TERMS[d]


def test_series_stops_at_the_first_window_end_where_every_start_is_certified():
    # tiny balls certify in the first window and stop at its end, d=1 R=16
    # after many windows; the d=3 R=1 ball's even class is a single row (the centre)
    for center, R in (((0,), 0), ((0, 0), 1), ((0, 0, 0), 1)):
        assert assert_orbit_series(make_ball(center, R))[0].meta["terms"] == _WINDOW
    assert (make_ball((0, 0, 0), 1).coords.sum(axis=1) % 2 == 0).sum() == 1
    terms = assert_orbit_series(make_ball((0,), 16))[0].meta["terms"]
    assert terms > 10 * _WINDOW and terms % _WINDOW == 0 and type(terms) is int


def test_series_holds_a_few_blocks_not_its_window():
    # d=2 R=8: 145 points, 15 columns of blocks of 17.4 kB; the walk holds the
    # current block and the next and the two totals, and the table's gathers
    # take a few blocks more: 9.6 blocks beyond the table measured, where
    # holding the window's 64 blocks would exceed 64
    B = make_ball((0, 0), 8)
    green_table_series(B, tol=1e-10)  # symmetries and killed matrix out of the trace
    tracemalloc.start()
    try:
        series = green_table_series(B, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reps = np.flatnonzero(B.representatives()[: len(B)] == np.arange(len(B)))
    block = len(B) * (walk_columns(B, reps).max() + 1) * 8
    assert block == 17_400
    assert peak - series.values.nbytes < 12 * block


@pytest.mark.parametrize("center,R,max_steps", [((0,), 16, 5), ((0,), 16, 150), ((0, 0), 6, 3), ((0, 0), 6, 130)])
def test_truncated_series_matches_reference(center, R, max_steps, monkeypatch):
    # max_steps inside the first window, and spanning several windows
    monkeypatch.setattr(green, "SERIES_MAX_STEPS", max_steps)
    series, _ = assert_orbit_series(make_ball(center, R))
    assert series.meta["truncated"]
    assert series.meta["terms"] == max_steps
    assert series.meta["tail_bound"] == math.inf


def test_asymmetric_domain_walks_every_start():
    L = FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)])
    assert len(L.symmetries()) == 1
    series, table = assert_orbit_series(L)
    assert np.array_equal(series.values, table)


def test_half_integer_centred_domain_walks_one_start_per_orbit():
    # centre (1/2, 1): the x reflection swaps the parity classes
    D = FiniteDomain.from_points([(x, y) for x in range(2) for y in range(3)])
    assert len(np.unique(D.representatives()[: len(D)])) == 2
    assert_orbit_series(D)


def test_solve_on_a_domain_that_is_not_a_ball():
    L = FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)])
    solved = green_solve(L)
    P = killed_matrix(L)
    assert np.abs(solved - P @ solved - np.eye(len(L))).max() < RESIDUAL_TOL
    assert np.array_equal(green_solve(L), solved)
    series = green_table_series(L, tol=1e-12)
    assert np.abs(series.values - solved).max() <= 1e-9


def test_full_tables_are_solved_afresh_with_the_balls_one_factor():
    B = make_ball((0, 0), 3)
    first = green_solve(B)
    factor = kernel._LU.get(B.key(), lambda: None)
    second = green_solve(B)
    assert second is not first and np.array_equal(second, first)
    assert kernel._LU.get(B.key(), lambda: None) is factor is not None


@functools.lru_cache(maxsize=None)
def exact_green_table(d, R):
    """The ball's points and ``(I - P)^-1`` in exact rationals, by Gauss-Jordan elimination.

    The points are the lattice points within graph distance R of the origin
    in lexicographic order, and two points are neighbours when their graph
    distance is 1.  ``I - P`` is a diagonally dominant M-matrix, so every
    pivot in order is positive.
    """
    points = [p for p in itertools.product(range(-R, R + 1), repeat=d) if sum(map(abs, p)) <= R]
    step = Fraction(1, 2 * d)
    rows = [
        [Fraction(i == j) - step * (graph_distance(p, q) == 1) for j, q in enumerate(points)]
        + [Fraction(i == j) for j in range(len(points))]
        for i, p in enumerate(points)
    ]
    for c, pivot_row in enumerate(rows):
        pivot_row[:] = [v / pivot_row[c] for v in pivot_row]
        for row in rows:
            if row is not pivot_row and row[c]:
                factor = row[c]
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
    return points, [row[len(points):] for row in rows]


def worst_ulps(got, exact):
    """max |got - exact| in units of the last place of the correctly rounded exact value."""
    return max(
        abs(Fraction(float(g)) - e) / Fraction(math.ulp(float(e)))
        for g, e in zip(got.ravel().tolist(), itertools.chain.from_iterable(exact))
    )


def plant_leak(monkeypatch):
    """From here on the walk leaks 1e-9 of its mass per step, on fresh killed-matrix and factor memos."""
    build = kernel._walk_operator
    monkeypatch.setattr(kernel, "_KILLED", kernel.Memo())
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())
    monkeypatch.setattr(kernel, "_walk_operator", lambda D: build(D) * (1.0 - 1e-9))


# measured 9.9 and 3.0 ulps with SuperLU's symmetric-mode factor
@pytest.mark.parametrize("d, R, ulps", [(2, 3, 16), (3, 2, 16)])
def test_solved_table_is_the_exact_rational_inverse(d, R, ulps, monkeypatch):
    points, exact = exact_green_table(d, R)
    B = make_ball((0,) * d, R)
    assert [tuple(p) for p in B.interior] == points
    assert worst_ulps(green_solve(B), exact) <= ulps
    # a walk that leaks 1e-9 of its mass per step is millions of ulps off
    plant_leak(monkeypatch)
    assert worst_ulps(green_solve(B), exact) > 1e6


def exact_harmonic_measure(d, R):
    """The ball's outer boundary and ``H = G P(., ∂B)`` in exact rationals.

    The boundary is the points at graph distance R + 1 from the origin, in
    lexicographic order; ``H[x][z]`` sums ``G[x][y] / 2d`` over the ball's
    points y at graph distance 1 from z.
    """
    points, table = exact_green_table(d, R)
    boundary = [p for p in itertools.product(range(-R - 1, R + 2), repeat=d) if sum(map(abs, p)) == R + 1]
    near = [[j for j, y in enumerate(points) if graph_distance(y, z) == 1] for z in boundary]
    step = Fraction(1, 2 * d)
    return boundary, [[step * sum(row[j] for j in js) for js in near] for row in table]


# measured 8.6 and 3.0 ulps: the exit block's columns through the factor of the table above
@pytest.mark.parametrize("d, R, ulps", [(2, 3, 16), (3, 2, 16)])
def test_harmonic_measure_is_the_exact_green_table_times_the_exit_block(d, R, ulps, monkeypatch):
    boundary, exact = exact_harmonic_measure(d, R)
    B = make_ball((0,) * d, R)
    assert [tuple(z) for z in B.outer_coords] == boundary
    every = np.arange(len(boundary))
    assert worst_ulps(harmonic_measure_matrix(B, every), exact) <= ulps
    plant_leak(monkeypatch)
    assert worst_ulps(harmonic_measure_matrix(B, every), exact) > 1e6


@pytest.mark.parametrize(
    "D",
    [make_ball((0,) * d, R) for d, R in ((1, 4), (1, 16), (2, 4), (2, 16), (3, 4), (3, 8))]
    + [
        make_ball((3, -2), 5),
        FiniteDomain.from_points([(x, 0) for x in range(5)] + [(0, 1), (0, 2)]),
        FiniteDomain.from_points([(x, y) for x in range(2) for y in range(3)]),
    ],
    ids=lambda D: f"{len(D)}pts",
)
def test_expected_exit_times_are_within_the_series_cap(D):
    # E_x tau = sum_y g(x, y) <= (r+1)^2; at d=1 the centre attains it: 25 at R=4, 289 at R=16
    exit_times = green_solve(D).sum(axis=1)
    assert exit_times.max() <= exit_time_cap(D) * (1 + 1e-12)
    if D.dimension == 1:
        assert abs(exit_times.max() - exit_time_cap(D)) <= 1e-12 * exit_time_cap(D)


@pytest.mark.parametrize("d, R", [(1, 6), (2, 3), (3, 2)])
@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
def test_series_tail_bound_covers_the_exact_truncation_error(d, R, tol):
    """Every start's exact remaining mass ``sum_y (g - series)`` lies in ``[0, tail_bound]``.

    The bound covers truncation only: at tol 1e-14 the series' own summation
    round-off exceeds it (at d=1 R=6, after 1,472 terms, a start's remaining
    mass reads 4.5e-14 against a bound of 3.7e-15).
    """
    _, exact = exact_green_table(d, R)
    series = green_table_series(make_ball((0,) * d, R), tol=tol)
    bound = Fraction(series.meta["tail_bound"])
    for j, column in enumerate(series.values.T.tolist()):
        tail = sum(exact[i][j] - Fraction(v) for i, v in enumerate(column))
        assert 0 <= tail <= bound


def test_column_restricted_solve_matches_full():
    B = make_ball((0, 0), 3)
    full = green_solve(B)
    idx = [0, 5, len(B) - 1]
    partial = green_solve(B, columns=idx)
    assert np.array_equal(partial, full[:, idx])


def test_equivalence_audit_passes():
    report = equivalence_audit(2, [2, 4], rel_tol=1e-8)
    assert report.passed
    assert report.constants["max_rel_error"] <= 1e-10


def test_ugi_audit_passes_and_rejects_dimension_one():
    report = ugi_audit(2, [8, 16])
    assert report.passed
    for row in report.rows:
        assert row["ratio"] <= 10.0
    with pytest.raises(ValueError):
        ugi_audit(1, [8, 16])


@pytest.mark.parametrize(
    "audit,d,r_values,bad",
    [
        (ugi_audit, 2, [1], 1),  # the half ball is the centre alone, and r = 1 > R/2
        (ugi_audit, 3, [1, 4], 1),
        (comparability_audit, 2, [1, 2, 3], 1),  # below R = 4 the quarter ball is one point
        (comparability_audit, 3, [2, 3], 2),
        (comparability_audit, 2, [3, 8], 3),
    ],
)
def test_radii_that_compare_nothing_are_refused_by_name(audit, d, r_values, bad):
    with pytest.raises(ValueError, match=f"R = {bad}$"):
        audit(d, r_values)


def test_the_smallest_radii_that_compare_something_run():
    assert ugi_audit(2, [2, 3]).passed
    assert comparability_ratio(2, 4) > 1.0 and comparability_ratio(3, 4) > 1.0
    with pytest.raises(ValueError, match="R = 3$"):
        comparability_ratio(2, 3)


def ugi_full_reference(d, R):
    """(G1, G2) of ``ugi_audit`` from every half-ball column and every half-ball pair."""
    B = make_ball((0,) * d, R)
    half = B.within(R // 2)
    g = green_solve(B, columns=half)[half, :]
    r = np.maximum(np.abs(B.coords[half][:, None, :] - B.coords[half][None, :, :]).sum(axis=2), 1)
    keep = r <= R / 2
    vals = g[keep] / np.log(R / r[keep]) if d == 2 else g[keep] * r[keep].astype(float) ** (d - 2)
    return vals.min(), vals.max()


def comparability_full_reference(d, R):
    """``comparability_ratio`` over every pole of the half ball's inner boundary."""
    B = make_ball((0,) * d, R)
    poles = np.flatnonzero(B.inner_mask(B.within(R // 2)))
    g = green_solve(B, columns=poles)[B.within(R // 4), :]
    return (g.max(axis=0) / g.min(axis=0)).max()


@pytest.mark.parametrize("d,R", [(2, 8), (2, 16), (3, 6)])
def test_orbit_columns_give_the_full_computation(d, R, monkeypatch):
    solved = []

    def recording_solve(B, columns):
        solved.append((B, np.asarray(columns)))
        return green_solve(B, columns)

    monkeypatch.setattr(green, "green_solve", recording_solve)
    (row,) = ugi_audit(d, [R]).rows
    ratio = comparability_ratio(d, R)
    monkeypatch.undo()
    g1, g2 = ugi_full_reference(d, R)
    assert abs(row["G1"] - g1) <= 1e-13 * g1 and abs(row["G2"] - g2) <= 1e-13 * g2
    want = comparability_full_reference(d, R)
    assert abs(ratio - want) <= 1e-13 * want
    # one column per orbit: the half ball's orbits, then the inner boundary's
    (B, half_cols), (_, pole_cols) = solved
    rep = B.representatives()
    assert np.array_equal(half_cols, np.unique(rep[B.within(R // 2)]))
    assert np.array_equal(pole_cols, np.unique(rep[np.flatnonzero(B.inner_mask(B.within(R // 2)))]))
    assert len(half_cols) < len(B.within(R // 2))


def test_killed_lower_audit_passes():
    assert killed_lower_audit(1, [4, 8]).passed
    assert killed_lower_audit(2, [4]).passed


def canonical_pair(B, x, y):
    """The least of the point pairs (h x, h y) and (h y, h x) over the maps h of ``B.symmetries()``."""
    i, j = B.index_of(x), B.index_of(y)
    images = [(B.interior[h[i]], B.interior[h[j]]) for h in B.symmetries()]
    return min(images + [(b, a) for a, b in images])


def killed_lower_reference(d, r_values, grid):
    """Per start, per step and per decay in log space, every half-ball start walked.

    Every admissible (start, target, m) is a candidate
    ``log pair + (d/2) log m + c dist^2 / m``; among equal minima the
    smallest (m, dist, pair, start, target) wins.  The audit walks one start
    per orbit, so its witness is compared as a canonical pair.
    """
    rows, worst = [], None
    for R in sorted(r_values):
        B = make_ball((0,) * d, R)
        P = killed_matrix(B)
        half = B.within(R // 2)
        best = [None] * len(grid)  # (log value, tie key, witness) per decay
        for si, xi in enumerate(half):
            dist = np.abs(B.coords[half] - B.coords[xi]).sum(axis=1)
            vec = np.zeros(len(B))
            vec[xi] = 1.0
            prev = None
            for n in range(R * R + 2):
                if n > 0:
                    vec = P @ vec
                m = n - 1
                if prev is not None and m >= 1:
                    sel = np.flatnonzero(dist <= m)
                    pair = (prev + vec)[half][sel]
                    dd = dist[sel].astype(float)
                    logs = np.log(pair) + (d / 2.0) * math.log(m)
                    for gi, c in enumerate(grid):
                        vals = logs + c * (dd * dd / m)
                        for k in np.flatnonzero(vals == vals.min()):
                            key = (m, dist[sel[k]], pair[k], si, sel[k])
                            if best[gi] is None or (vals[k], key) < best[gi][:2]:
                                y = B.interior[half[sel[k]]]
                                best[gi] = (vals[k], key, {"R": R, "x": B.interior[xi], "y": y, "n": m})
                prev = vec
        amp = np.exp(np.array([b[0] for b in best]))
        gi = int(np.argmax(amp))
        a_hat, c_hat = float(amp[gi]), float(grid[gi])
        rows.append({"R": R, "A": a_hat, "C": c_hat})
        if worst is None or a_hat < worst.get("A", math.inf):
            worst = {"A": a_hat, "C": c_hat, **best[gi][2]}
    return rows, worst


def killed_lower_linear_reference(d, r_values, grid):
    """The linear-space fit: per start, per step and per decay, ``pair * m^(d/2) * exp(c dist^2 / m)``."""
    rows, worst = [], None
    for R in sorted(r_values):
        B = make_ball((0,) * d, R)
        P = killed_matrix(B)
        half = B.within(R // 2)
        coords = B.coords
        amp = np.full(grid.shape, np.inf)
        witness = [None] * len(grid)
        for xi in half:
            x = B.interior[xi]
            dist = np.abs(coords[half] - coords[xi]).sum(axis=1)
            vec = np.zeros(len(B))
            vec[xi] = 1.0
            prev = None
            for n in range(R * R + 2):
                if n > 0:
                    vec = P @ vec
                if prev is not None:
                    m = n - 1
                    sel = dist <= m
                    if m >= 1 and sel.any():
                        pair = (prev + vec)[half][sel]
                        dd = dist[sel].astype(float)
                        base = pair * m ** (d / 2.0)
                        for gi, c in enumerate(grid):
                            vals = base * np.exp(c * dd * dd / m)
                            k = int(np.argmin(vals))
                            if vals[k] < amp[gi]:
                                amp[gi] = float(vals[k])
                                y = B.interior[half[sel.nonzero()[0][k]]]
                                witness[gi] = {"R": R, "x": x, "y": y, "n": m}
                prev = vec
        best = int(np.argmax(amp))
        a_hat, c_hat = float(amp[best]), float(grid[best])
        rows.append({"R": R, "A": a_hat, "C": c_hat})
        if worst is None or a_hat < worst.get("A", math.inf):
            worst = {"A": a_hat, "C": c_hat, **(witness[best] or {})}
    return rows, worst


KILLED_GRIDS = [(1, [1, 2, 3, 4, 5, 6]), (2, [2, 3, 4, 5, 6]), (3, [2, 4, 6])]


@pytest.mark.parametrize("d,r_values", KILLED_GRIDS)
def test_batched_killed_lower_matches_per_start_loop(d, r_values):
    grid = np.geomspace(1.0 / 64, 8.0, 32)
    report = killed_lower_audit(d, r_values)
    rows, worst = killed_lower_reference(d, r_values, grid)
    assert report.rows == rows
    x, y = canonical_pair(make_ball((0,) * d, worst["R"]), worst["x"], worst["y"])
    assert report.worst == {**worst, "x": x, "y": y}


@pytest.mark.parametrize("d,r_values", KILLED_GRIDS)
def test_log_space_killed_fit_is_the_linear_fit_to_round_off(d, r_values):
    grid = np.geomspace(1.0 / 64, 8.0, 32)
    report = killed_lower_audit(d, r_values)
    rows, worst = killed_lower_linear_reference(d, r_values, grid)
    for got, want in zip(report.rows, rows, strict=True):
        assert (got["R"], got["C"]) == (want["R"], want["C"])
        assert abs(got["A"] - want["A"]) <= 1e-14 * want["A"]
    assert abs(report.worst["A"] - worst["A"]) <= 1e-14 * worst["A"]
    x, y = canonical_pair(make_ball((0,) * d, worst["R"]), worst["x"], worst["y"])
    assert report.worst == {**worst, "A": report.worst["A"], "x": x, "y": y}


@pytest.mark.parametrize("d,R", [(2, 8), (3, 4)])
def test_green_witnesses_are_canonical(d, R):
    # every image of a witness pair, either way round, canonicalizes back to it
    B = make_ball((0,) * d, R)
    ugi, killed = ugi_audit(d, [R]).worst, killed_lower_audit(d, [R]).worst
    for x, y in (ugi["min_pair"], ugi["max_pair"], (killed["x"], killed["y"])):
        pair = (B.index_of(x), B.index_of(y))
        assert canonical_pair(B, x, y) == (x, y)
        for h in B.symmetries():
            a, b = h[pair[0]], h[pair[1]]
            assert min(B.canonical((a, b)), B.canonical((b, a))) == pair


def test_comparability_ratio_frozen_and_stable():
    # Frozen regression value measured from the solve route.
    assert comparability_ratio(2, 8) == pytest.approx(3.659983955551712, rel=1e-10)
    report = comparability_audit(2, [4, 8, 16])
    assert report.passed
    for row in report.rows:
        assert row["ratio"] >= 1.0


def test_interior_pairs_scale_with_log_in_d2():
    # The fitted window of g / log(R/r) should be well inside [0.1, 10].
    report = ugi_audit(2, [16])
    (row,) = report.rows
    assert 0.05 <= row["G1"] <= row["G2"] <= 10.0
