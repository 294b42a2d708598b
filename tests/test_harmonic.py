"""Boundary-value solvers, harmonic measure, and sweeping-out."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack import harmonic
from harnack.exit_time import exit_walks
from harnack.green import green_solve
from harnack.harmonic import (
    BalayageError,
    _random_subset,
    balayage,
    balayage_batch_audit,
    dirichlet_iterate,
    dirichlet_mc,
    dirichlet_solve,
    dirichlet_triple_audit,
    harmonic_measure_matrix,
    laplacian,
    random_harmonic,
)
from harnack.kernel import SolverError, exit_coupling, killed_matrix, killed_solve
from harnack.lattice import FiniteDomain, graph_distance, make_ball
from harnack.rng import philox

from test_green import exact_solve, plant_leak, worst_ulps


def exit_scatter(D, phi):
    """``sum_z P(y, z) phi(z)`` by ``np.add.at`` over the steps out of ``D``, in neighbour order."""
    rows, steps = np.nonzero(D.neighbor_index >= len(D))
    out = np.zeros((len(D),) + np.shape(phi)[1:])
    np.add.at(out, rows, 1.0 / (2 * D.dimension) * phi[D.neighbor_index[rows, steps] - len(D)])
    return out


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
        assert h[D.index_of((x,))] == pytest.approx((x + R + 1) / (2 * R + 2), abs=1e-13)


def test_solution_is_harmonic_and_respects_bounds():
    D = make_ball((0, 0), 5)
    h = random_harmonic(D, seed=11)
    assert np.abs(laplacian(D, h)).max() <= 1e-12
    assert h.min() >= 0.0 - 1e-12
    assert h.max() <= 1.0 + 1e-12


def test_laplacian_needs_the_full_neighborhood():
    D = make_ball((0, 0), 2)
    h = random_harmonic(D, seed=0)
    assert laplacian(D, h).shape == (len(D),)
    with pytest.raises(ValueError):
        laplacian(D, h[: len(D)])  # no boundary values


def test_a_field_is_read_by_the_closure_index_of_any_equal_ball():
    # A field carries no domain: a twin ball, built again, reads it as its own,
    # and an interior-only array or another ball's field is refused.
    B, twin = make_ball((0, 0), 3), make_ball((0, 0), 3)
    h = random_harmonic(B, seed=2)
    for D, bad in ((twin, h[: len(twin)]), (make_ball((0, 0), 2), h)):
        with pytest.raises(ValueError):
            laplacian(D, bad)
    assert np.abs(laplacian(twin, h)).max() <= 1e-12
    assert balayage(twin, twin.within(1), h).max_reconstruction_rel_error <= 1e-8


def test_solve_and_iterate_agree():
    D = make_ball((0, 0), 6)
    rng_data = np.linspace(0.0, 1.0, len(D.outer_boundary))
    a = dirichlet_solve(D, rng_data)
    b = dirichlet_iterate(D, rng_data)
    assert np.abs(a - b).max() <= 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_maximum_principle(seed):
    D = make_ball((0, 0), 4)
    h = random_harmonic(D, seed)
    interior_vals, boundary_vals = h[: len(D)], h[len(D) :]
    assert interior_vals.max() <= boundary_vals.max() + 1e-12
    assert interior_vals.min() >= boundary_vals.min() - 1e-12


def test_mc_replay_and_accuracy():
    D = interval_domain(4)
    phi = ruin_data(D)
    a = dirichlet_mc(D, phi, (0,), samples=20_000, seed=9)
    b = dirichlet_mc(D, phi, (0,), samples=20_000, seed=9)
    assert a == b
    estimate, standard_error = a
    exact = dirichlet_solve(D, phi)[D.index_of((0,))]
    assert abs(estimate - exact) <= 4.0 * standard_error + 1e-12


@pytest.mark.parametrize("cap", [3, 5])
def test_mc_walkers_that_outlast_the_step_cap_are_an_error(cap, monkeypatch):
    # From the centre of the R = 4 interval the walk needs 5 steps to leave:
    # with a cap of 3 no walker exits, with a cap of 5 some do and most do not.
    D = interval_domain(4)
    monkeypatch.setattr(harmonic, "_MC_STEP_CAP", cap)
    exited = sum(len(exits) for _, exits in exit_walks(D, (0,), 2_000, 9, harmonic._MC_STREAM, cap))
    assert (exited == 0) if cap == 3 else (0 < exited < 2_000)
    with pytest.raises(SolverError, match="step cap exceeded"):
        dirichlet_mc(D, ruin_data(D), (0,), samples=2_000, seed=9)
    monkeypatch.setattr(harmonic, "_MC_STEP_CAP", 2_000)
    dirichlet_mc(D, ruin_data(D), (0,), samples=2_000, seed=9)


def test_mc_route_builds_no_boundary_coupling(monkeypatch):
    D = make_ball((0, 0), 3)
    phi = np.linspace(0.0, 1.0, len(D.outer_coords))
    expected = dirichlet_mc(D, phi, (0, 0), samples=2_000, seed=4)

    def no_coupling(*args, **kwargs):
        raise AssertionError("the Monte Carlo route builds the boundary coupling")

    monkeypatch.setattr(harmonic, "exit_coupling", no_coupling)
    assert dirichlet_mc(D, phi, (0, 0), samples=2_000, seed=4) == expected
    with pytest.raises(ValueError, match="align with D.outer_coords"):
        dirichlet_mc(D, phi[:-1], (0, 0), samples=2_000, seed=4)


def test_harmonic_measure_row_properties():
    D = make_ball((0, 0), 4)
    hm = harmonic_measure_matrix(D, np.arange(len(D.outer_coords)))[D.index_of((1, -1))]
    assert hm.shape == (len(D.outer_coords),)
    assert hm.min() >= 0.0
    assert hm.sum() == pytest.approx(1.0, abs=1e-12)
    # Expectation identity: h(x) = sum_z hm_x(z) phi(z).
    phi = np.linspace(-2.0, 3.0, len(D.outer_boundary))
    h = dirichlet_solve(D, phi)
    assert float(hm @ phi) == pytest.approx(h[D.index_of((1, -1))], abs=1e-11)


def test_harmonic_measure_matrix_matches_single_rows():
    # Row x is the exit law from x; column z must be the Dirichlet solution
    # with data 1_z, solved here one boundary point at a time.
    D = make_ball((0, 0), 3)
    M = harmonic_measure_matrix(D, np.arange(len(D.outer_coords)))
    for z in (0, 5, len(D.outer_coords) // 2, len(D.outer_coords) - 1):
        e_z = np.zeros(len(D.outer_coords))
        e_z[z] = 1.0
        forward = dirichlet_solve(D, e_z)[: len(D)]
        assert np.abs(M[:, z] - forward).max() <= 1e-13


def test_harmonic_measure_refuses_what_is_not_a_boundary_index_set():
    D = make_ball((0, 0), 3)
    for bad, error in (([-1], ValueError), ([len(D.outer_coords)], ValueError), ([], ValueError),
                       ([1.0], TypeError), ([True, False], TypeError)):
        with pytest.raises(error):
            harmonic_measure_matrix(D, bad)


@pytest.mark.parametrize("d,R", [(1, 9), (2, 6), (3, 4)])
def test_the_exit_block_product_is_the_step_scatter_bit_for_bit(d, R):
    # on the ball and on complements restricted from it, for a vector and a
    # block; data spread over 16 decades, so a reordered sum would show
    B = make_ball((0,) * d, R)
    rng = np.random.default_rng(d)
    domains = [B] + [B.restrict(np.setdiff1d(np.arange(len(B)), _random_subset(B, rng))) for _ in range(8)]
    for D in domains:
        data = rng.standard_normal((len(D.outer_coords), 7)) * 10.0 ** rng.uniform(-8, 8, (len(D.outer_coords), 7))
        for phi in (data[:, 0], data):
            assert np.array_equal(exit_coupling(D, phi), exit_scatter(D, phi))


@pytest.mark.parametrize("d,R", [(1, 9), (2, 6), (3, 4)])
def test_a_block_solve_is_its_column_solves_bit_for_bit(d, R):
    # on a ball (its memoized factor) and on a complement restricted from it (factored afresh)
    B = make_ball((0,) * d, R)
    Dc = B.restrict(np.setdiff1d(np.arange(len(B)), B.within(R // 2, (1,) + (0,) * (d - 1))))
    for D in (B, Dc):
        block = np.random.default_rng(d).uniform(size=(len(D), 9))
        solved = killed_solve(D, block)
        for k in range(block.shape[1]):
            assert np.array_equal(solved[:, k], killed_solve(D, block[:, k]))


@pytest.mark.parametrize("d,R", [(1, 9), (2, 6), (3, 4)])
def test_a_sequence_of_seeds_is_one_harmonic_per_column(d, R):
    B = make_ball((0,) * d, R)
    seeds = [7, 0, 7, 2**31 - 1]
    block = random_harmonic(B, seeds)
    assert block.shape == (len(B) + len(B.outer_coords), len(seeds))
    for k, seed in enumerate(seeds):
        assert np.array_equal(block[:, k], random_harmonic(B, seed))


def test_a_block_of_boundary_data_is_one_problem_per_column():
    # the oscillation audit's mixtures are one solve of a (|∂D|, k) block
    D = make_ball((0, 0), 3)
    data = np.random.default_rng(5).uniform(size=(len(D.outer_coords), 3))
    block = dirichlet_solve(D, data)
    assert block.shape == (len(D) + len(D.outer_coords), 3)
    for k in range(3):
        assert np.abs(block[:, k] - dirichlet_solve(D, data[:, k])).max() <= 1e-13
    assert np.abs(dirichlet_iterate(D, data) - block).max() <= 1e-8
    with pytest.raises(ValueError, match="one boundary vector"):
        dirichlet_mc(D, data, (0, 0), samples=10, seed=0)
    with pytest.raises(ValueError, match="align with D.outer_coords"):
        dirichlet_solve(D, data[None])


@pytest.mark.parametrize("d,R,seed", [(1, 6, 2), (2, 5, 0), (3, 3, 1)])
def test_triple_measure_gap_is_the_green_column_against_the_coupling(d, R, seed):
    # Recomputed outside the audit: the centre's Green column dotted with the
    # coupling c(y) = sum over y's exit steps z of phi(z) / 2d, against h(0).
    from harnack.kernel import RESIDUAL_TOL

    report = dirichlet_triple_audit(d, R, seed=seed, agree_tol=1e-8)
    B = make_ball((0,) * d, R)
    h = random_harmonic(B, seed)
    coupling = exit_scatter(B, h[len(B) :])
    e_center = np.zeros(len(B))
    e_center[B.index_of((0,) * d)] = 1.0
    gap = abs(float(killed_solve(B, e_center) @ coupling) - h[B.index_of((0,) * d)])
    assert report.constants["measure_average_gap"] == gap <= RESIDUAL_TOL
    assert {"check": "measure_average", "value": gap, "limit": RESIDUAL_TOL} in report.rows


@pytest.mark.parametrize("d,R,seed", [(1, 6, 2), (2, 5, 0), (3, 3, 1)])
def test_triple_harmonic_row_sees_an_exit_block_the_other_routes_share(d, R, seed, monkeypatch):
    # The solve, iteration and measure routes all read the exit block; the
    # Laplacian reads D.neighbor_index, so an exit block leaking 1e-9 fails it alone.
    from harnack.kernel import RESIDUAL_TOL

    report = dirichlet_triple_audit(d, R, seed=seed, agree_tol=1e-8)
    B = make_ball((0,) * d, R)
    lap = float(np.abs(laplacian(B, random_harmonic(B, seed))).max())
    assert report.constants["max_laplacian"] == lap <= RESIDUAL_TOL
    assert {"check": "harmonic", "value": lap, "limit": RESIDUAL_TOL} in report.rows
    monkeypatch.setattr(harmonic, "exit_coupling", lambda D, phi: exit_coupling(D, phi) * (1.0 - 1e-9))
    leaky = dirichlet_triple_audit(d, R, seed=seed, agree_tol=1e-8)
    assert not leaky.passed
    assert [row["check"] for row in leaky.rows if row["value"] > row["limit"]] == ["harmonic"]


SPD_POLICY = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


@pytest.mark.parametrize("d,R", [(1, 6), (2, 5), (3, 3)])
def test_ball_solves_use_the_memoized_factor(d, R, monkeypatch):
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from harnack import kernel

    B = make_ball((0,) * d, R)
    fresh = splu((sp.identity(len(B), format="csc") - killed_matrix(B)).tocsc(), **SPD_POLICY)
    phi = np.linspace(0.0, 1.0, len(B.outer_boundary))
    rhs = exit_scatter(B, phi)
    coupling = exit_scatter(B, np.identity(len(B.outer_boundary)))

    def no_factorization(*args, **kwargs):
        raise AssertionError("a ball's factor is refactorized")

    kernel.killed_solve(B, rhs)
    factor = kernel._LU.get(B.key(), no_factorization)
    kernel.killed_solve(make_ball((0,) * d, R), rhs)
    assert kernel._LU.get(B.key(), no_factorization) is factor  # one factor per ball
    monkeypatch.setattr(kernel.spla, "splu", no_factorization)
    assert np.array_equal(dirichlet_solve(B, phi)[: len(B)], fresh.solve(rhs))
    assert np.array_equal(harmonic_measure_matrix(B, np.arange(len(B.outer_coords))), fresh.solve(coupling))


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
    harmonic_measure_matrix(B, np.arange(len(B.outer_coords)))
    laplacian(B, h)


def test_every_factor_solve_is_certified(monkeypatch):
    # A factor whose solve is off by 1e-6 must fail each entry point's certificate.
    from harnack import kernel

    splu = kernel.spla.splu

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz  # the memo counts a factor by its L + U nonzeros

        def solve(self, rhs):
            return self.lu.solve(rhs) + 1e-6

    monkeypatch.setattr(kernel.spla, "splu", lambda A, **kwargs: Perturbed(splu(A, **kwargs)))
    monkeypatch.setattr(kernel, "_LU", kernel.Memo())  # keeps the perturbed factors from other tests
    B = make_ball((37, -23), 4)  # a ball whose Green table no other test memoizes
    h = np.ones(len(B) + len(B.outer_coords))  # harmonic without a solve
    solves = [
        lambda: green_solve(B),
        lambda: dirichlet_solve(B, np.ones(len(B.outer_coords))),
        lambda: harmonic_measure_matrix(B, np.arange(len(B.outer_coords))),
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
    bdata = np.array([h[B.index_of(q)] if q in a_set else 0.0 for q in Dc.outer_boundary])
    sweep = np.zeros(len(B) + len(B.outer_coords))
    sweep[a_idx] = h[a_idx]
    sweep[complement] = dirichlet_solve(Dc, bdata)[: len(Dc)]
    inside = sweep[: len(B)]
    f = inside - killed_matrix(B) @ inside
    off_support = ~B.inner_mask(a_idx)
    f = np.where(off_support, 0.0, f)
    support = np.flatnonzero(~off_support)
    recon = green_solve(B, columns=support)[a_idx] @ f[support]
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
        assert np.array_equal(result.sweep, sweep)
        assert np.array_equal(result.charge, f)
        got = result.reconstruction[a_idx]
        assert (np.abs(got - recon) <= 1e-13 * np.abs(recon)).all()


def test_balayage_complement_solves_build_no_point_tuples(monkeypatch):
    # The complement is cut from the ball's arrays: no point list, no re-indexing from scratch.
    domains = []
    restrict = FiniteDomain.restrict

    def recording(self, indices):
        domains.append(restrict(self, indices))
        return domains[-1]

    def from_scratch(*args, **kwargs):
        raise AssertionError("a complement is indexed from its points")

    B = make_ball((0, 0), 6)
    h = random_harmonic(B, seed=4)
    monkeypatch.setattr(FiniteDomain, "restrict", recording)
    monkeypatch.setattr(FiniteDomain, "_from_cells", from_scratch)
    result = balayage(B, B.within(2, (1, -1)), h)
    assert result.max_reconstruction_rel_error <= 1e-10
    (Dc,) = domains
    assert len(Dc) == len(B) - len(B.within(2, (1, -1)))
    assert {"interior", "outer_boundary"}.isdisjoint(vars(Dc))
    # Built on first use, the tuples agree with the arrays and the closure index.
    assert Dc.interior == tuple(map(tuple, Dc.coords.tolist()))
    assert Dc.closure_index(Dc.outer_boundary[0]) == len(Dc)


@pytest.mark.parametrize("d,r_values", [(1, [4, 8, 16]), (2, [4, 8]), (3, [4])])
@pytest.mark.parametrize("seed", [0, 5])
def test_batch_rows_are_the_point_list_path_one_instance_at_a_time(d, r_values, seed):
    # The batch draws every instance first and solves a radius's harmonics in one block.
    report = balayage_batch_audit(d, r_values, seed=seed, recon_tol=1e-8)
    want = []
    for R in r_values:
        B = make_ball((0,) * d, R)
        rng = philox(seed, stream=(harmonic._BALAYAGE_STREAM << 32) | R)
        for i in range(harmonic.INSTANCES):
            h_seed = int(rng.integers(1 << 31))
            a_points = reference_subset(B, rng)
            sweep, f, recon = reference_balayage(B, a_points, random_harmonic(B, h_seed))
            a_idx = [B.index_of(p) for p in a_points]
            u = killed_solve(B, f)[a_idx]  # the reconstruction the batch reports, by the ball's factor
            assert (np.abs(u - recon) <= 1e-13 * np.abs(recon)).all()
            rel = np.abs(u - sweep[a_idx]) / np.maximum(np.abs(sweep[a_idx]), 1e-300)
            want.append({"R": R, "instance": i, "h_seed": h_seed, "subset_size": len(a_points),
                         "rel_error": float(rel.max()), "min_charge": float(f.min())})
    assert report.passed
    assert report.rows == want


def test_balayage_of_constant_onto_the_center():
    # Sweeping the constant 1 onto {0} puts charge 1/g(0,0) there: the
    # reconstruction f(0) g(x, 0) must return 1 at 0, and g(0,0) = 2 on the
    # three-point interval.
    B = make_ball((0,), 1)
    h = np.ones(len(B) + len(B.outer_coords))
    result = balayage(B, [B.index_of((0,))], h)
    assert result.charge[B.index_of((0,))] == pytest.approx(0.5, abs=1e-12)
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
            assert result.charge[B.index_of(p)] == 0.0
    # The sweep never exceeds the original function, on the ball or its outer boundary.
    assert (result.sweep <= h + 1e-12).all()


def test_balayage_reconstruction_via_green_table():
    B = make_ball((0, 0), 3)
    h = random_harmonic(B, seed=21)
    A = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
    result = balayage(B, [B.index_of(p) for p in A], h)
    recon = green_solve(B) @ result.charge
    for p in A:
        i = B.index_of(p)
        assert recon[i] == pytest.approx(h[i], rel=1e-8)


def exact_harmonic_extension(points, data):
    """``u`` on ``points``, harmonic there and equal to ``data`` (a dict) on every neighbour outside, in exact rationals."""
    step = Fraction(1, 2 * len(points[0]))
    inside = set(points)
    coupling = [[step * sum(data[q] for q in unit_steps(p) if q not in inside)] for p in points]
    return [u for (u,) in exact_solve(points, coupling)]


def unit_steps(p):
    """The 2d lattice neighbours of the point ``p``, from its coordinates."""
    return [p[:k] + (p[k] + sign,) + p[k + 1 :] for k, sign in itertools.product(range(len(p)), (-1, 1))]


# measured at most 1.8 ulps on the sweep and 3.2 on the charge
@pytest.mark.parametrize("d,R,r", [(1, 6, 3), (2, 3, 1), (2, 4, 2), (3, 2, 1)])
def test_balayage_is_the_exact_rational_sweep_and_charge(d, R, r, monkeypatch):
    # h: the exact harmonic extension of data read off the coordinates, rounded
    # to binary64; A = B(0, r).  The sweep is h on A, the exact extension of h|A
    # and 0 on B minus A, and the charge is f = u - P u on A's inner boundary.
    norm = lambda p: sum(map(abs, p))
    ball = [p for p in itertools.product(range(-R, R + 1), repeat=d) if norm(p) <= R]
    outer = [p for p in itertools.product(range(-R - 1, R + 2), repeat=d) if norm(p) == R + 1]
    data = {z: Fraction(1 + sum((k + 2) * c for k, c in enumerate(z)) % 7, 8) for z in outer}
    h = np.array([float(v) for v in exact_harmonic_extension(ball, data)] + [float(data[z]) for z in outer])
    a_points = [p for p in ball if norm(p) <= r]
    u = dict.fromkeys(outer, Fraction(0)) | {p: Fraction(float(h[i])) for i, p in enumerate(ball) if norm(p) <= r}
    rest = [p for p in ball if norm(p) > r]
    u |= dict(zip(rest, exact_harmonic_extension(rest, u)))
    f = {p: u[p] - Fraction(1, 2 * d) * sum(u[q] for q in unit_steps(p)) for p in ball}
    inner = [p for p in a_points if any(norm(q) > r for q in unit_steps(p))]

    B = make_ball((0,) * d, R)
    assert B.interior == tuple(ball) and list(map(tuple, B.outer_coords.tolist())) == outer
    a_idx = B.within(r)
    result = balayage(B, a_idx, h)
    assert worst_ulps(result.sweep, [[u[p] for p in ball + outer]]) <= 16
    on_inner = [B.index_of(p) for p in inner]
    assert worst_ulps(result.charge[on_inner], [[f[p] for p in inner]]) <= 16
    off = np.setdiff1d(np.arange(len(B)), on_inner)
    assert not result.charge[off].any() and max(abs(f[ball[i]]) for i in off) <= 1e-15
    # a walk that leaks 1e-9 of its mass per step leaks charge off the inner boundary
    plant_leak(monkeypatch)
    with pytest.raises(BalayageError, match="leaks"):
        balayage(B, a_idx, h)


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
    with pytest.raises(ValueError, match="closure index"):
        balayage(B, center, good[: len(B)])  # no boundary values
    with pytest.raises(ValueError, match="nonnegative"):
        balayage(B, center, good - 5.0)  # negative somewhere
    lumpy = np.arange(len(B) + len(B.outer_coords), dtype=float) ** 2
    with pytest.raises(ValueError, match="not harmonic"):
        balayage(B, center, lumpy)


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
