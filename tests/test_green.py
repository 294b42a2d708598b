"""Green tables: dual-route agreement, identities, interior comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.green import (
    comparability_audit,
    comparability_ratio,
    equivalence_audit,
    green_solve,
    green_table_series,
    green_value_floor,
    killed_lower_audit,
    ugi_audit,
)
from harnack.kernel import killed_matrix
from harnack.lattice import graph_distance, make_ball

# Expected visit counts on the 3-point interval, from inverting the 3x3
# system by hand: (I - P)^-1 with P the nearest-neighbour half matrix.
INTERVAL_TABLE = [[1.5, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 1.5]]


def test_interval_table_matches_hand_inverse():
    table = green_solve(make_ball((0,), 1))
    assert np.abs(table.values - INTERVAL_TABLE).max() <= 1e-12
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
    assert np.abs(series.values - solved.values).max() <= 1e-9
    assert not series.meta["truncated"]


def test_solve_satisfies_defining_identity():
    B = make_ball((0, 0), 4)
    G = green_solve(B).values
    P = killed_matrix(B).toarray()
    residual = np.abs((np.eye(len(B)) - P) @ G - np.eye(len(B))).max()
    assert residual <= 1e-10


def test_table_symmetry_positivity_and_diagonal_dominance():
    B = make_ball((0, 0), 4)
    G = green_solve(B).values
    assert (G > 0.0).all()
    assert np.abs(G - G.T).max() <= 1e-12
    # Visits to y are maximised from y itself (strong maximum principle).
    assert (G.max(axis=0) == G.diagonal()).all()


@pytest.mark.parametrize("d,R", [(1, 4), (1, 8), (2, 4), (2, 8)])
def test_floor_really_is_a_lower_bound(d, R):
    B = make_ball((0,) * d, R)
    assert green_solve(B).values.min() >= green_value_floor(d, R)


def test_row_series_matches_table_column():
    B = make_ball((0, 0), 3)
    series = green_table_series(B, tol=1e-12)
    column = series.values[:, B.index_of((1, 1))]
    table = green_solve(B)
    assert np.abs(column - table.values[:, B.index_of((1, 1))]).max() <= 1e-9
    assert not series.meta["truncated"]
    assert series.meta["terms"] > 0


def test_column_restricted_solve_matches_full():
    B = make_ball((0, 0), 3)
    full = green_solve(B).values
    idx = [0, 5, len(B) - 1]
    partial = green_solve(B, columns=idx).values
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


def test_killed_lower_audit_passes():
    assert killed_lower_audit(1, [4, 8]).passed
    assert killed_lower_audit(2, [4]).passed


def killed_lower_reference(d, r_values, grid):
    """The per-start, per-step, per-decay loop the batched audit replaced."""
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


@pytest.mark.parametrize("d,r_values", [(1, [1, 2, 3, 4, 5, 6]), (2, [2, 3, 4, 5, 6]), (3, [2, 4, 6])])
def test_batched_killed_lower_matches_per_start_loop(d, r_values):
    grid = np.geomspace(1.0 / 64, 8.0, 32)
    report = killed_lower_audit(d, r_values)
    rows, worst = killed_lower_reference(d, r_values, grid)
    assert report.rows == rows
    assert report.worst == worst


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
