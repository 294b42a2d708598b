"""Release gate: one check per shipped guarantee, one printed verdict line each.

Every test prints `ACCEPTANCE <id> <name>: PASS|FAIL` (visible without -s)
and then asserts, so a plain pytest run doubles as the sign-off sheet.
"""

import numpy as np

from harnack import bounds, ehi, exit_time, green, harmonic, kernel
from harnack.lattice import make_ball


def _verdict(capsys, cid, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {cid:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {cid:02d} ({name}) failed"


def test_acceptance_01_kernel_exactness(capsys):
    audits = [
        kernel.exactness_audit(1, 128),
        kernel.exactness_audit(2, 128),
        kernel.exactness_audit(3, 64),
    ]
    ok = all(a.passed for a in audits)
    ok = ok and all(a.constants["max_mass_deviation"] <= 1e-12 for a in audits)
    ok = ok and all(a.constants["two_step_return_exact"] for a in audits)
    ok = ok and all(a.constants["parity_zeros_exact"] for a in audits)
    _verdict(capsys, 1, "kernel-exactness", ok)


def test_acceptance_02_axis_projection(capsys):
    audit = kernel.projection_audit(64)
    ok = audit.passed and audit.constants["max_marginal_deviation"] <= 1e-12
    _verdict(capsys, 2, "axis-projection", ok)


def test_acceptance_03_exit_tail_bound(capsys):
    ok = True
    for d in (1, 2):
        audit = exit_time.chernoff_audit(d, range(4, 33))
        ok = ok and audit.passed
        ok = ok and audit.constants["checked_points"] > audit.constants["vacuous_points"]
    _verdict(capsys, 3, "exit-tail-bound", ok)


def test_acceptance_04_green_route_equivalence(capsys):
    ok = True
    for d, radii in ((1, [2, 4, 8, 16]), (2, [2, 4, 8, 16]), (3, [2, 4, 8])):
        audit = green.equivalence_audit(d, radii, rel_tol=1e-8)
        ok = ok and audit.passed and audit.constants["max_rel_error"] <= 1e-8
    interval = make_ball((0,), 1)
    expected = np.array([[1.5, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 1.5]])
    for table in (green.green_solve(interval), green.green_table_series(interval, tol=1e-14)):
        ok = ok and float(np.abs(table.values - expected).max()) <= 1e-12
    _verdict(capsys, 4, "green-route-equivalence", ok)


def test_acceptance_05_green_scaling_windows(capsys):
    audit_2d = green.ugi_audit(2, [8, 16, 32])
    audit_3d = green.ugi_audit(3, [6, 8, 12])
    ok = audit_2d.passed and audit_3d.passed
    for audit in (audit_2d, audit_3d):
        for row in audit.rows:
            ok = ok and row["ratio"] <= 10.0
    _verdict(capsys, 5, "green-scaling-windows", ok)


def test_acceptance_06_sweep_reconstruction(capsys):
    ok = True
    for d in (1, 2):
        audit = harmonic.balayage_batch_audit(d, (4, 8), seed=0, recon_tol=1e-8)
        ok = ok and audit.passed
        ok = ok and audit.constants["failures"] == 0
        ok = ok and audit.constants["max_reconstruction_rel_error"] < 1e-8
        ok = ok and audit.constants["min_charge_value"] >= -1e-12
    _verdict(capsys, 6, "sweep-reconstruction", ok)


def test_acceptance_07_dirichlet_three_routes(capsys):
    ok = True
    for d in (1, 2):
        audit = harmonic.dirichlet_triple_audit(d, 8, seed=0, agree_tol=1e-8)
        ok = ok and audit.passed
        ok = ok and audit.constants["solve_vs_iterate"] <= 1e-8
        ok = ok and audit.constants["mc_z"] <= 4.0
    _verdict(capsys, 7, "dirichlet-three-routes", ok)


def test_acceptance_08_interval_constant_formula(capsys):
    audit = ehi.d1_closed_form_audit(128)
    ok = audit.passed
    ok = ok and audit.constants["max_constant"] < 3.0
    ok = ok and audit.constants["max_gap"] <= 1e-12
    _verdict(capsys, 8, "interval-constant-formula", ok)


def test_acceptance_09_planar_constant_stability(capsys):
    audit = ehi.stability_audit(2, (8, 16, 24, 32))
    ok = audit.passed and audit.constants["ratio"] <= 1.5
    certified_cap = 4.0 ** 32
    for row in audit.rows:
        ok = ok and row["constant"] <= certified_cap
    _verdict(capsys, 9, "planar-constant-stability", ok)


def test_acceptance_10_gaussian_fit_and_chain(capsys):
    lower = bounds.gaussian_lower_audit(2, 64)
    upper = bounds.gaussian_upper_audit(2, 64)
    ok = lower.passed and upper.passed
    ok = ok and lower.constants["L1"] > 0.0 and lower.constants["L2"] > 0.0
    ok = ok and upper.constants["U1"] > 0.0 and upper.constants["U2"] > 0.0
    batch = bounds.chain_certificate_batch(2, count=200, seed=0)
    ok = ok and batch.passed and batch.constants["infeasible"] == 0
    ok = ok and len(batch.rows) == 200
    ok = ok and all(row["valid"] for row in batch.rows)
    _verdict(capsys, 10, "gaussian-fit-and-chain", ok)


def test_acceptance_11_local_limit_error_decay(capsys):
    audit = bounds.lclt_error_scan(2, (16, 128))
    first = next(row["scaled_error"] for row in audit.rows if row["n"] == 16)
    ok = audit.passed and audit.constants["max_scaled_error"] <= 2.0 * first
    _verdict(capsys, 11, "local-limit-error-decay", ok)
