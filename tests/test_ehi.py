"""Harnack constants: exact values, closed form, stability, oscillation."""

import numpy as np
import pytest

from harnack.ehi import (
    chained_harnack_audit,
    d1_closed_form_audit,
    d1_harnack_constant,
    harnack_constant_exact,
    hitting_kernels,
    oscillation_audit,
    small_r_bound_audit,
    stability_audit,
)
from harnack.harmonic import harmonic_measure_matrix, laplacian, LatticeField
from harnack.lattice import graph_distance, make_ball


def test_d1_constant_closed_form_small_cases():
    # R=2: max h(x)/h(y) over |x|,|y| <= 1 equals (2+1+1)/(2+1-1) = 2.
    assert d1_harnack_constant(2) == pytest.approx(2.0, abs=1e-15)
    assert d1_harnack_constant(1) == pytest.approx(1.0, abs=1e-15)
    for R in (1, 2, 3, 5, 8, 13, 21, 33):
        rec = harnack_constant_exact(1, R)
        assert rec.constant == pytest.approx(d1_harnack_constant(R), abs=1e-12)
        assert rec.constant < 3.0


def test_record_metadata_and_monotone_growth():
    rec = harnack_constant_exact(2, 6)
    assert rec.d == 2 and rec.R == 6
    assert rec.constant >= 1.0
    assert graph_distance(rec.witness_max, (0, 0)) <= 3
    assert graph_distance(rec.witness_min, (0, 0)) <= 3
    assert graph_distance(rec.witness_boundary, (0, 0)) == 7  # outer boundary
    sweep = [harnack_constant_exact(2, R) for R in (2, 4, 8)]
    consts = [r.constant for r in sweep]
    assert consts == sorted(consts)


def test_hitting_kernels_are_nonnegative_harmonic_partitions():
    D, reps, K = hitting_kernels(2, 4)
    M = harmonic_measure_matrix(D, np.arange(len(D.outer_coords)))
    assert K.shape == (len(D), len(reps)) and M.shape == (len(D), len(D.outer_boundary))
    assert (M >= 0.0).all()
    assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12  # rows are exit laws over the whole boundary
    assert np.abs(K - M[:, reps]).max() <= 1e-15
    # each column is harmonic in the interior as a function of the start
    for k in (0, len(reps) // 2):
        h = LatticeField(D, np.concatenate([K[:, k], np.eye(len(D.outer_boundary))[reps[k]]]))
        assert np.abs(laplacian(h)).max() <= 1e-12


@pytest.mark.parametrize("d,R", [(2, 6), (3, 3)])
def test_one_kernel_per_orbit_gives_every_ratio(d, R):
    # a boundary point's orbit under the signed coordinate permutations is
    # every boundary point with the same sorted absolute coordinates
    D, reps, _ = hitting_kernels(d, R)
    half = D.within(R // 2)
    M = harmonic_measure_matrix(D, np.arange(len(D.outer_coords)))[half]
    ratios = M.max(axis=0) / M.min(axis=0)
    orbit_of = [tuple(sorted(map(abs, z))) for z in D.outer_boundary]
    least = {}
    for j, key in enumerate(orbit_of):
        least.setdefault(key, j)  # outer_boundary is lexicographic
    assert reps.tolist() == sorted(least.values())
    for j, key in enumerate(orbit_of):
        assert ratios[j] == pytest.approx(ratios[least[key]], rel=1e-12, abs=0.0)
    rec = harnack_constant_exact(d, R)
    w = rec.witness_boundary
    assert D.outer_boundary.index(w) == least[tuple(sorted(map(abs, w)))]
    assert rec.constant == pytest.approx(ratios.max(), rel=1e-12, abs=0.0)


def test_the_planar_witness_is_the_least_point_of_its_orbit():
    # the four axis points of the boundary tie; (-33, 0) is the least of them
    assert harnack_constant_exact(2, 32).witness_boundary == (-33, 0)


@pytest.mark.parametrize("d,R", [(2, 8), (3, 4)])
def test_small_r_witness_is_canonical(d, R):
    D = make_ball((0,) * d, R)
    z = D.closure_index(small_r_bound_audit(d, [R]).worst["witness_z"])
    assert D.representatives()[z] == z
    for h in D.symmetries():
        assert D.canonical((h[z],)) == (z,)


def test_small_r_bound_audit_passes():
    assert small_r_bound_audit(1, range(1, 33)).passed
    assert small_r_bound_audit(2, (1, 2, 4, 8)).passed


def test_stability_audit_with_frozen_constants():
    report = stability_audit(2, (8, 16))
    assert report.passed
    by_r = {row["R"]: row["constant"] for row in report.rows}
    # Frozen regression values from the exact solve route.
    assert by_r[8] == pytest.approx(14.342891948664827, rel=1e-9)
    assert by_r[16] == pytest.approx(16.999477078164457, rel=1e-9)
    assert report.constants["ratio"] <= 1.5


def test_oscillation_audit_affine_case_is_exact():
    report = oscillation_audit(1, [8, 12], seed=4)
    assert report.passed
    for row in report.rows:
        # affine kernels: the half-interval swing is exactly half
        assert row["delta"] == pytest.approx(0.5, abs=1e-12)


def test_oscillation_audit_planar():
    report = oscillation_audit(2, [8], seed=4)
    assert report.passed
    assert report.rows[0]["delta"] >= 0.05


def test_chained_certificate_dominates_exact():
    report = chained_harnack_audit(2, [40])
    assert report.passed
    row = report.rows[0]
    assert row["C"] <= row["certified"]
    assert row["kappa"] >= 1.0


def test_closed_form_audit_passes():
    report = d1_closed_form_audit(64)
    assert report.passed
    assert report.constants["max_constant"] < 3.0
