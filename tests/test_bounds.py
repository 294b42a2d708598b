"""Gaussian envelopes, local-CLT error scan, long-range chain certificates."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harnack import bounds, green
from harnack.bounds import (
    DP_WINDOW,
    LAG,
    _EnvelopeFit,
    _paired,
    chain_certificate,
    chain_certificate_batch,
    gaussian_lower_audit,
    gaussian_upper_audit,
    lclt_error_scan,
    lclt_form,
    near_diagonal_audit,
    random_chain_instance,
)
from harnack.kernel import _orthant_graph, iter_free_fields, iter_killed_vectors, walk_pmf
from harnack.lattice import make_ball
from harnack.rng import philox

from test_kernel import box_fields


def test_lclt_form_matches_central_value():
    # The limiting on-diagonal constant: p_n(0,0) * n^{d/2} -> 2 (d/(2 pi))^{d/2}.
    for d in (1, 2):
        amplitude, decay = lclt_form(d)
        assert amplitude == pytest.approx(2.0 * (d / (2 * math.pi)) ** (d / 2))
        assert decay == pytest.approx(d / 2)


def test_lclt_error_scan_passes():
    report = lclt_error_scan(1, (8, 48))
    assert report.passed
    scaled = [row["scaled_error"] for row in report.rows]
    assert max(scaled) <= 2.0 * scaled[0]


def test_near_diagonal_audit_passes_with_sane_constants():
    report = near_diagonal_audit(1, 48)
    assert report.passed
    # On-diagonal d=1 limit is sqrt(2/pi) ~ 0.798; the sup fit sits near it.
    assert 0.7 <= report.constants["N1"] <= 1.1
    assert report.constants["N2"] > 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_near_diagonal_audit_needs_an_admissible_time(d):
    # at L = LAG = 0.7 the first admissible time is n = 3 > 1/L^2 ~ 2.04
    assert LAG == 0.7
    with pytest.raises(ValueError):
        near_diagonal_audit(d, 2)
    assert near_diagonal_audit(d, 3).passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_free_fits_refuse_steps_past_the_dp_window(d):
    assert DP_WINDOW == 128
    for fit in (near_diagonal_audit, gaussian_lower_audit, gaussian_upper_audit):
        with pytest.raises(ValueError, match="desk-scale window"):
            fit(d, DP_WINDOW + 1)
    with pytest.raises(ValueError, match="scan window"):
        lclt_error_scan(d, (2, DP_WINDOW + 1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_free_pair_is_the_live_term_of_each_cell(d):
    # the pair is p_m over {0..m}^d, the corner that holds every shell r <= m;
    # p_m and p_{m+1} never share a nonzero cell there, so their sum is their
    # elementwise maximum bit for bit
    fields = dict(iter_free_fields(d, 21))
    ms = []
    for m, pair in _paired(iter_free_fields(d, 21)):
        ms.append(m)
        prev = fields[m]
        now = fields[m + 1][(slice(m + 1),) * d]
        assert pair.shape == prev.shape == (m + 1,) * d
        assert (np.count_nonzero(np.stack([prev, now]), axis=0) <= 1).all()
        assert pair.tobytes() == np.maximum(prev, now).tobytes()
        cut = np.ones(fields[m + 1].shape, bool)
        cut[(slice(m + 1),) * d] = False
        assert (_orthant_graph(d, m + 1)[cut] > m).all()  # the cells cut off lie beyond shell m
    assert ms == list(range(1, 21))


@pytest.mark.parametrize("d, R", [(2, 8), (3, 4)])
def test_a_killed_pair_is_each_orbit_starts_own_walk(d, R, monkeypatch):
    # the pairs killed_lower_audit fits, start by start, against one walk per start
    pairs = []

    def recorded(kernels):
        for m, pair in _paired(kernels):
            pairs.append(pair)
            yield m, pair

    monkeypatch.setattr(green, "_paired", recorded)
    assert green.killed_lower_audit(d, [R]).passed
    B = make_ball((0,) * d, R)
    half = B.within(R // 2)
    starts = half[B.representatives()[half] == half]
    assert len(pairs) == R * R
    for s, start in enumerate(starts):
        walk = [block[half, 0] for _, block in iter_killed_vectors(B, [start], R * R + 1)]
        for m, pair in enumerate(pairs, start=1):
            assert pair[s].tobytes() == (walk[m] + walk[m + 1]).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_fit_audits_pass(d):
    lower = gaussian_lower_audit(d, 32)
    upper = gaussian_upper_audit(d, 32)
    assert lower.passed and upper.passed
    assert lower.constants["L1"] > 0.0
    assert upper.constants["U1"] >= 1.0


def box_distances(d, n):
    axes = np.meshgrid(*([np.arange(-n, n + 1)] * d), indexing="ij")
    return sum(np.abs(a) for a in axes)


def near_diagonal_n2_reference(d, n_max, L):
    """N2 and its witness by the element-wise loop over every admissible box cell."""
    n2, n2_witness, prev = math.inf, None, None
    for n, field in box_fields(d, n_max + 1):
        if prev is not None:
            m = n - 1
            if 1 <= m <= n_max:
                pair = prev + field[tuple(slice(1, s - 1) for s in field.shape)]
                graph = box_distances(d, m)
                admissible = np.maximum(graph * graph, 1) <= (L * L) * m
                if admissible.any():
                    cand = float(pair[admissible].min()) * m ** (d / 2.0)
                    if cand < n2:
                        n2, n2_witness = cand, {"n": m, "value": cand}
        prev = field
    return n2, n2_witness


def gaussian_lower_reference(d, n_max, grid):
    """Amplitudes and binding steps, evaluating every admissible cell at every decay."""
    log_amp = np.full(grid.shape, np.inf)
    witness_n = np.zeros(grid.shape, dtype=int)
    prev = None
    for n, field in box_fields(d, n_max + 1):
        if prev is not None:
            m = n - 1
            if m >= 1:
                pair = prev + field[tuple(slice(1, s - 1) for s in field.shape)]
                graph = box_distances(d, m)
                mask = graph <= m
                logs = np.log(pair[mask]) + (d / 2.0) * math.log(m)
                ratio = (graph[mask].astype(float) ** 2) / m
                cand = (logs[None, :] + grid[:, None] * ratio[None, :]).min(axis=1)
                better = cand < log_amp
                log_amp[better] = cand[better]
                witness_n[better] = m
        prev = field
    return np.exp(log_amp), witness_n


def gaussian_upper_reference(d, n_max, grid):
    """Amplitudes and binding steps, evaluating every positive cell at every decay."""
    log_amp = np.full(grid.shape, -np.inf)
    witness_n = np.zeros(grid.shape, dtype=int)
    for n, field in box_fields(d, n_max):
        graph = box_distances(d, n)
        t = max(n, 1)
        mask = field > 0
        logs = np.log(field[mask]) + (d / 2.0) * math.log(t)
        ratio = (graph[mask].astype(float) ** 2) / t
        cand = (logs[None, :] + grid[:, None] * ratio[None, :]).max(axis=1)
        better = cand > log_amp
        log_amp[better] = cand[better]
        witness_n[better] = n
    return np.exp(log_amp), witness_n


@pytest.mark.parametrize("d,n_max", [(1, 96), (2, 48), (3, 20)])
def test_shell_fits_equal_the_element_wise_loops(d, n_max):
    report = near_diagonal_audit(d, n_max)
    n2, n2_witness = near_diagonal_n2_reference(d, n_max, LAG)
    assert report.constants["N2"] == n2
    assert report.worst["N2_at"] == n2_witness
    grid = np.geomspace(1.0 / 64, 8.0, 32)
    report = gaussian_lower_audit(d, n_max)
    amplitudes, witness_n = gaussian_lower_reference(d, n_max, grid)
    best = int(amplitudes.argmax())
    assert report.rows == [{"decay": float(c), "amplitude": float(a)} for c, a in zip(grid, amplitudes)]
    assert report.constants == {"L1": float(amplitudes[best]), "L2": float(grid[best])}
    assert report.worst == {"binding_n": int(witness_n[best])}
    grid = np.geomspace(1.0 / 64, 0.9 * math.log(2 * d), 32)
    report = gaussian_upper_audit(d, n_max)
    amplitudes, witness_n = gaussian_upper_reference(d, n_max, grid)
    best = int(amplitudes.argmin())
    assert report.rows == [{"decay": float(c), "amplitude": float(a)} for c, a in zip(grid, amplitudes)]
    assert report.constants == {"U1": float(amplitudes[best]), "U2": float(grid[best])}
    assert report.worst == {"binding_n": int(witness_n[best])}


@pytest.mark.parametrize("lower", [True, False])
def test_envelope_fit_ties_go_to_the_earliest_fold_then_the_nearest_shell(lower):
    # With decay 0 both shells give log 0.5; with decay 1 the far shell is
    # larger, so the lower fit binds at r = 0 and the upper fit at r = 1.
    fit = _EnvelopeFit(1, np.array([0.0, 1.0]), lower=lower)
    fit.fold(np.array([0.5, 0.5]), 1, lambda r: ("first", r))
    fit.fold(np.array([0.5, 0.5]), 1, lambda r: ("second", r))
    assert fit.witness == [("first", 0), ("first", 0 if lower else 1)]
    assert fit.log_amp.tolist() == [np.log(0.5), np.log(0.5) + (0.0 if lower else 1.0)]


def test_chain_certificate_on_a_long_range_pair():
    cert = chain_certificate((0, 0), (40, -40), 9000, 0.8)
    assert cert.valid
    assert cert.blocks >= 32
    assert cert.side_lower_ok and cert.side_upper_ok
    assert cert.waypoints[0] == (0, 0) and cert.waypoints[-1] == (40, -40)
    assert sum(cert.times) == 9000
    assert cert.product <= cert.direct_value
    assert cert.log_product <= math.log(cert.direct_value)
    # The direct value is the parity-paired exact kernel (closed form).
    paired = sum(float(walk_pmf(n, 0) * walk_pmf(n, 80)) for n in (9000, 9001))
    assert cert.direct_value == pytest.approx(paired, rel=1e-10)


def test_chain_certificate_rejects_out_of_window_times():
    # n below the window start (64 R > n L^2) and above it (n L^2 > R^2).
    with pytest.raises(ValueError):
        chain_certificate((0, 0), (40, -40), 400, 0.8)
    with pytest.raises(ValueError):
        chain_certificate((0, 0), (40, -40), 1_000_000, 0.8)
    with pytest.raises(ValueError):
        chain_certificate((0, 0, 0), (4, 4, 4), 900, 0.8)  # d=3 unsupported
    with pytest.raises(ValueError):
        chain_certificate((0, 0), (40, -40), 9000, 1.2)  # L outside (0, 1)


def chain_reference(cert):
    """Direct value and log product with one ``make_ball`` and one pmf call per leg."""
    d = len(cert.x)

    def prob(t, offsets):
        offsets = np.atleast_2d(offsets)
        if d == 1:
            return walk_pmf(t, offsets[:, 0])
        return walk_pmf(t, offsets[:, 0] + offsets[:, 1]) * walk_pmf(t, offsets[:, 0] - offsets[:, 1])

    offset = np.array(cert.y) - np.array(cert.x)
    direct = float(prob(cert.n, offset).sum()) + float(prob(cert.n + 1, offset).sum())
    if cert.blocks == 1:
        return direct, math.log(direct)
    balls = [make_ball(w, cert.segment).coords for w in cert.waypoints[1:-1]]
    times = cert.times
    logs = [math.log(float(prob(times[0], balls[0] - np.array(cert.x)).sum()))]
    for i in range(1, cert.blocks - 1):
        diff = balls[i][None, :, :] - balls[i - 1][:, None, :]
        probs = prob(times[i], diff.reshape(-1, d)).reshape(len(balls[i - 1]), len(balls[i]))
        logs.append(math.log(float(probs.sum(axis=1).min())))
    offs = np.array(cert.y) - balls[-1]
    logs.append(math.log(float((prob(times[-1], offs) + prob(times[-1] + 1, offs)).min())))
    log_product = 0.0
    for value in logs:
        log_product += value
    return direct, log_product


@pytest.mark.parametrize("d", [1, 2])
def test_chain_certificate_equals_per_leg_reference(d):
    rng = philox(11, stream=0xC4A1)
    for _ in range(12):
        x, y, n, L = random_chain_instance(d, rng)
        cert = chain_certificate(x, y, n, L)
        assert (cert.direct_value, cert.log_product) == chain_reference(cert)


@pytest.mark.parametrize("d", [1, 2])
def test_chain_certificate_evaluates_each_distinct_leg_once(d, monkeypatch):
    # One kernel evaluation per step count of each evaluated value: the direct
    # value (n, n + 1), the first leg, each distinct middle (waypoint step,
    # time) and the paired last leg (s, s + 1).
    calls = []
    free_prob = bounds._free_prob
    monkeypatch.setattr(bounds, "_free_prob", lambda *args: calls.append(1) or free_prob(*args))
    rng = philox(5, stream=0xC4A1)
    for _ in range(4):
        calls.clear()
        cert = chain_certificate(*random_chain_instance(d, rng))
        steps = np.diff(cert.waypoints, axis=0).tolist()
        middles = {(tuple(step), t) for step, t in zip(steps[1:-1], cert.times[1:-1])}
        assert len(middles) < cert.blocks - 2  # legs repeat, so a dropped memo shows
        assert len(calls) == 2 + 1 + len(middles) + 2


@pytest.mark.parametrize("d", [1, 2])
def test_chain_batch_all_valid(d, monkeypatch):
    monkeypatch.setattr(bounds, "CHAIN_INSTANCES", 25)
    report = chain_certificate_batch(d, seed=3)
    assert report.passed
    assert len(report.rows) == 25
    for row in report.rows:
        assert row["log_margin"] >= 0.0


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    R=st.integers(*bounds.R_RANGE),
    L=st.floats(*bounds.L_RANGE),
    where=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_chain_block_count_fits_the_window_up_to_its_edges(d, R, L, where):
    # Anywhere in 64 R <= n L^2 <= R^2, ends included (where = 0 and 1), the
    # block count m = ceil(32 R^2/(L^2 n)) lies in [32 R^2/(L^2 n), 64 R^2/(L^2 n)].
    lo, hi = math.ceil(64.0 * R / (L * L)), math.floor(R * R / (L * L))
    assume(lo <= hi)
    n = lo + round(where * (hi - lo))
    y = (R,) if d == 1 else (R // 2, R - R // 2)
    cert = chain_certificate((0,) * d, y, n, L)
    assert 32.0 * R * R / (L * L * n) <= cert.blocks <= 64.0 * R * R / (L * L * n)
