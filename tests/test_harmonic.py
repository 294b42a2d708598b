"""Boundary-value solvers, harmonic measure, and sweeping-out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.green import green_solve
from harnack.harmonic import (
    LatticeField,
    _random_subset,
    balayage,
    balayage_batch_audit,
    dirichlet_iterate,
    dirichlet_mc,
    dirichlet_solve,
    dirichlet_triple_audit,
    harmonic_measure,
    harmonic_measure_matrix,
    laplacian,
    random_harmonic,
)
from harnack.kernel import SolverError, killed_matrix
from harnack.lattice import FiniteDomain, graph_distance, make_ball
from harnack.rng import philox


def interval_domain(R):
    return make_ball((0,), R)


def ruin_data(D):
    """Absorb at the right boundary point with payout one."""
    return np.where(D.outer_coords[:, 0] > 0, 1.0, 0.0)


def test_gamblers_ruin_closed_form():
    R = 8
    D = interval_domain(R)
    h = dirichlet_solve(D, ruin_data(D))
    for x in range(-R, R + 1):
        assert h.value_at((x,)) == pytest.approx((x + R + 1) / (2 * R + 2), abs=1e-13)


def test_solution_is_harmonic_and_respects_bounds():
    D = make_ball((0, 0), 5)
    h = random_harmonic(D, seed=11)
    assert np.abs(laplacian(h, D)).max() <= 1e-12
    assert h.values.min() >= 0.0 - 1e-12
    assert h.values.max() <= 1.0 + 1e-12


def test_laplacian_needs_the_full_neighborhood():
    D = make_ball((0, 0), 2)
    h = random_harmonic(D, seed=0)
    assert laplacian(h, D).shape == (len(D),)
    with pytest.raises(ValueError):
        laplacian(h, make_ball((0, 0), 3))  # a field over another ball


def test_fields_over_another_equal_ball_are_rejected():
    B, twin = make_ball((0, 0), 3), make_ball((0, 0), 3)
    h = random_harmonic(twin, seed=2)
    with pytest.raises(ValueError):
        laplacian(h, B)
    with pytest.raises(ValueError):
        balayage(B, B.within(1), h)
    with pytest.raises(ValueError):
        laplacian(LatticeField(twin, h.values[: len(twin)]), twin)  # no boundary values
    assert np.abs(laplacian(h, twin)).max() <= 1e-12
    assert balayage(twin, twin.within(1), h).max_reconstruction_rel_error <= 1e-8


def test_solve_and_iterate_agree():
    D = make_ball((0, 0), 6)
    rng_data = np.linspace(0.0, 1.0, len(D.outer_boundary))
    a = dirichlet_solve(D, rng_data)
    b = dirichlet_iterate(D, rng_data)
    assert np.abs(a.values - b.values).max() <= 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_maximum_principle(seed):
    D = make_ball((0, 0), 4)
    h = random_harmonic(D, seed)
    boundary_vals = [h.value_at(q) for q in D.outer_boundary]
    interior_vals = [h.value_at(p) for p in D.interior]
    assert max(interior_vals) <= max(boundary_vals) + 1e-12
    assert min(interior_vals) >= min(boundary_vals) - 1e-12


def test_mc_replay_and_accuracy():
    D = interval_domain(4)
    phi = ruin_data(D)
    a = dirichlet_mc(D, phi, (0,), samples=20_000, seed=9)
    b = dirichlet_mc(D, phi, (0,), samples=20_000, seed=9)
    assert a == b
    estimate, standard_error = a
    exact = dirichlet_solve(D, phi).value_at((0,))
    assert abs(estimate - exact) <= 4.0 * standard_error + 1e-12


def test_harmonic_measure_row_properties():
    D = make_ball((0, 0), 4)
    hm = harmonic_measure(D, (1, -1))
    assert hm.shape == (len(D.outer_coords),)
    assert hm.min() >= 0.0
    assert hm.sum() == pytest.approx(1.0, abs=1e-12)
    # Expectation identity: h(x) = sum_z hm_x(z) phi(z).
    phi = np.linspace(-2.0, 3.0, len(D.outer_boundary))
    h = dirichlet_solve(D, phi)
    assert float(hm @ phi) == pytest.approx(h.value_at((1, -1)), abs=1e-11)


def test_harmonic_measure_matrix_matches_single_rows():
    D = make_ball((0, 0), 3)
    M = harmonic_measure_matrix(D)
    for x in ((0, 0), (2, 0), (-1, -1)):
        row = harmonic_measure(D, x)
        assert np.abs(M[D.index_of(x)] - row).max() <= 1e-13


SPD_POLICY = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


@pytest.mark.parametrize("d,R", [(1, 6), (2, 5), (3, 3)])
def test_ball_solves_use_the_memoized_factor(d, R, monkeypatch):
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from harnack import kernel
    from harnack.kernel import exit_steps

    B = make_ball((0,) * d, R)
    rows_b, cols_b, w = exit_steps(B)
    fresh = splu((sp.identity(len(B), format="csc") - killed_matrix(B)).tocsc(), **SPD_POLICY)
    phi = np.linspace(0.0, 1.0, len(B.outer_boundary))
    rhs = np.zeros(len(B))
    np.add.at(rhs, rows_b, w * phi[cols_b])
    coupling = np.zeros((len(B), len(B.outer_boundary)))
    coupling[rows_b, cols_b] = w

    def no_factorization(*args, **kwargs):
        raise AssertionError("a ball's factor is refactorized")

    kernel.killed_solve(B, rhs)
    factor = kernel._LU.get(B.key(), no_factorization)
    kernel.killed_solve(make_ball((0,) * d, R), rhs)
    assert kernel._LU.get(B.key(), no_factorization) is factor  # one factor per ball
    monkeypatch.setattr(kernel.spla, "splu", no_factorization)
    assert np.array_equal(dirichlet_solve(B, phi).values[: len(B)], fresh.solve(rhs))
    assert np.array_equal(harmonic_measure_matrix(B), fresh.solve(coupling))
    u = fresh.solve(np.eye(len(B))[B.index_of((0,) * d)])
    row = np.zeros(len(B.outer_boundary))
    np.add.at(row, cols_b, w * u[rows_b])
    assert np.array_equal(harmonic_measure(B, (0,) * d), row)


@pytest.mark.parametrize("d,R", [(1, 6), (2, 5), (3, 3)])
def test_every_factorization_uses_the_spd_policy(d, R, monkeypatch):
    # Ball solves and balayage complements alike: symmetric mode, MMD on A^T + A, no pivoting.
    from harnack import kernel

    splu = kernel.spla.splu
    calls = []

    def recording_splu(A, **kwargs):
        calls.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(kernel.spla, "splu", recording_splu)
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())  # every ball factors afresh
    B = make_ball((0,) * d, R)
    h = random_harmonic(B, seed=5)
    balayage(B, B.within(R // 2), h)
    assert len(calls) == 2  # the ball, then the complement of the sub-ball
    assert all(kwargs == SPD_POLICY for kwargs in calls)


def test_ball_solves_build_no_sparse_matrix_once_factored(monkeypatch):
    import scipy.sparse as sp

    from harnack import kernel

    B = make_ball((0, 0), 6)
    kernel.killed_solve(B, np.zeros(len(B)))

    def no_assembly(*args, **kwargs):
        raise AssertionError("a sparse matrix is assembled for a factored ball")

    for name in ("csr_matrix", "csc_matrix"):
        monkeypatch.setattr(sp, name, no_assembly)
    h = random_harmonic(B, seed=3)
    dirichlet_solve(B, np.linspace(0.0, 1.0, len(B.outer_boundary)))
    harmonic_measure(B, (1, 0))
    harmonic_measure_matrix(B)
    laplacian(h, B)


def test_every_factor_solve_is_certified(monkeypatch):
    # A factor whose solve is off by 1e-6 must fail each entry point's certificate.
    from harnack import kernel

    splu = kernel.spla.splu

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs) + 1e-6

    monkeypatch.setattr(kernel.spla, "splu", lambda A, **kwargs: Perturbed(splu(A, **kwargs)))
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())  # keeps the perturbed factors from other tests
    B = make_ball((37, -23), 4)  # a ball whose Green table no other test memoizes
    h = LatticeField(B, np.ones(len(B) + len(B.outer_coords)))  # harmonic without a solve
    solves = [
        lambda: green_solve(B),
        lambda: dirichlet_solve(B, np.ones(len(B.outer_coords))),
        lambda: harmonic_measure(B, B.center),
        lambda: harmonic_measure_matrix(B),
        lambda: balayage(B, B.within(1), h),
    ]
    for solve in solves:
        with pytest.raises(SolverError):
            solve()


def reference_subset(B, rng):
    """The point-list subset: the points of a random sub-ball that lie in B."""
    center = B.interior[int(rng.integers(len(B)))]
    inner = make_ball(center, int(rng.integers(0, B.radius)))
    return tuple(p for p in inner.interior if p in B)


def reference_balayage(B, a_points, h):
    """Sweep, charge and |S|-column Green reconstruction on A, from point lists."""
    a_set = set(a_points)
    a_idx = np.array([B.index_of(p) for p in a_points])
    complement = np.setdiff1d(np.arange(len(B)), a_idx)
    Dc = FiniteDomain.from_points([B.interior[i] for i in complement])
    bdata = np.array([h.value_at(q) if q in a_set else 0.0 for q in Dc.outer_boundary])
    sweep = np.zeros(len(B) + len(B.outer_coords))
    sweep[a_idx] = [h.value_at(p) for p in a_points]
    sweep[complement] = dirichlet_solve(Dc, bdata).values[: len(Dc)]
    inside = sweep[: len(B)]
    f = inside - killed_matrix(B) @ inside
    off_support = ~B.inner_mask(a_idx)
    f = np.where(off_support, 0.0, f)
    support = np.flatnonzero(~off_support)
    recon = green_solve(B, columns=support).values[a_idx] @ f[support]
    return sweep, f, recon


@pytest.mark.parametrize("d,R", [(1, 2), (1, 8), (2, 3), (2, 8), (3, 2), (3, 4), (3, 8)])
def test_index_balayage_matches_the_point_list_path(d, R):
    B = make_ball((0,) * d, R)
    rng_ref, rng = philox(d, stream=R), philox(d, stream=R)
    for seed in range(6):
        a_points = reference_subset(B, rng_ref)
        a_idx = _random_subset(B, rng)
        assert tuple(B.interior[i] for i in a_idx) == a_points
        h = random_harmonic(B, seed)
        result = balayage(B, a_idx, h)
        sweep, f, recon = reference_balayage(B, a_points, h)
        assert np.array_equal(result.sweep.values, sweep)
        assert np.array_equal(result.charge.values, f)
        got = result.reconstruction.values[a_idx]
        assert (np.abs(got - recon) <= 1e-13 * np.abs(recon)).all()


def test_balayage_complement_solves_build_no_point_tuples(monkeypatch):
    from harnack import harmonic

    domains = []
    from_points = FiniteDomain.from_points

    def recording(points):
        domains.append(from_points(points))
        return domains[-1]

    monkeypatch.setattr(harmonic.FiniteDomain, "from_points", recording)
    B = make_ball((0, 0), 6)
    h = random_harmonic(B, seed=4)
    result = balayage(B, B.within(2, (1, -1)), h)
    assert result.max_reconstruction_rel_error <= 1e-10
    (Dc,) = domains
    assert len(Dc) == len(B) - len(B.within(2, (1, -1)))
    assert {"interior", "outer_boundary"}.isdisjoint(vars(Dc))
    # Built on first use, the tuples agree with the arrays and the closure index.
    assert Dc.interior == tuple(map(tuple, Dc.coords.tolist()))
    assert Dc.closure_index(Dc.outer_boundary[0]) == len(Dc)


def test_balayage_of_constant_onto_the_center():
    # Sweeping the constant 1 onto {0} puts charge 1/g(0,0) there: the
    # reconstruction f(0) g(x, 0) must return 1 at 0, and g(0,0) = 2 on the
    # three-point interval.
    B = make_ball((0,), 1)
    h = LatticeField(B, np.ones(len(B) + len(B.outer_coords)))
    result = balayage(B, [B.index_of((0,))], h)
    assert result.charge.value_at((0,)) == pytest.approx(0.5, abs=1e-12)
    assert result.max_reconstruction_rel_error <= 1e-10


def test_balayage_charge_supported_structurally():
    B = make_ball((0, 0), 4)
    h = random_harmonic(B, seed=5)
    A = [p for p in B.interior if graph_distance(p, (0, 0)) <= 2]
    result = balayage(B, [B.index_of(p) for p in A], h)
    inner_A = {p for p in A if any(q not in set(A) for q in
               [(p[0]+1,p[1]), (p[0]-1,p[1]), (p[0],p[1]+1), (p[0],p[1]-1)])}
    for p in B.interior:
        if p not in inner_A:
            assert result.charge.value_at(p) == 0.0
    # The sweep never exceeds the original function.
    for p, v in zip(B.interior + B.outer_boundary, result.sweep.values):
        assert v <= h.value_at(p) + 1e-12


def test_balayage_reconstruction_via_green_table():
    B = make_ball((0, 0), 3)
    h = random_harmonic(B, seed=21)
    A = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
    result = balayage(B, [B.index_of(p) for p in A], h)
    G = green_solve(B).values
    charge = result.charge.values
    recon = G @ charge
    for p in A:
        i = B.index_of(p)
        assert recon[i] == pytest.approx(h.value_at(p), rel=1e-8)


def test_balayage_rejects_bad_inputs():
    B = make_ball((0,), 2)
    good = random_harmonic(B, seed=1)
    center = [B.index_of((0,))]
    with pytest.raises(ValueError):
        balayage(B, [], good)  # empty target
    with pytest.raises(ValueError):
        balayage(B, np.arange(len(B)), good)  # not a strict subset
    for outside in (-1, len(B)):
        with pytest.raises(ValueError):
            balayage(B, [outside], good)  # not an interior index
    bad = LatticeField(B, good.values - 5.0)
    with pytest.raises(ValueError):
        balayage(B, center, bad)  # negative somewhere
    lumpy = LatticeField(B, np.arange(len(B) + len(B.outer_coords), dtype=float) ** 2)
    with pytest.raises(ValueError):
        balayage(B, center, lumpy)  # not harmonic


def test_balayage_reports_the_reconstruction_and_the_batch_gates_it(monkeypatch):
    # A reconstruction off by 1e-7 relative is reported by balayage; only recon_tol (--tol) gates it.
    from harnack import harmonic

    solve, sweep = harmonic.killed_solve, harmonic.balayage

    def off_by_1e7(D, rhs):
        u = solve(D, rhs)
        return u * (1.0 + 1e-7) if D.key() is not None else u  # the ball's reconstruction only

    def perturbed(B, A, h):
        with monkeypatch.context() as m:
            m.setattr(harmonic, "killed_solve", off_by_1e7)
            return sweep(B, A, h)

    B = make_ball((0, 0), 4)
    h = random_harmonic(B, seed=1)
    assert 5e-8 < perturbed(B, B.within(2), h).max_reconstruction_rel_error < 2e-7
    monkeypatch.setattr(harmonic, "balayage", perturbed)
    loose = balayage_batch_audit(2, (4,), seed=3, recon_tol=1e-6)
    tight = balayage_batch_audit(2, (4,), seed=3, recon_tol=1e-8)
    assert loose.passed and not tight.passed
    assert loose.constants["failures"] == tight.constants["failures"] == 0


def test_module_audits_pass():
    assert dirichlet_triple_audit(1, 6, seed=2, agree_tol=1e-8).passed
    assert balayage_batch_audit(2, (4,), seed=3, recon_tol=1e-8).passed
