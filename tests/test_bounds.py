"""Gaussian envelopes, local-CLT error scan, long-range chain certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack.bounds import (
    GaussianForm,
    chain_certificate,
    chain_certificate_batch,
    gaussian_lower_audit,
    gaussian_upper_audit,
    lclt_error_scan,
    lclt_form,
    near_diagonal_audit,
    random_chain_instance,
)
from harnack.kernel import closed_form_n_step, walk_pmf
from harnack.lattice import make_ball
from harnack.rng import philox


def test_gaussian_form_value_and_validation():
    form = GaussianForm(dimension=2, amplitude=1.0, decay=0.5, distance_kind="graph")
    assert form.value(4, 0) == pytest.approx(1.0 / 4.0)
    assert form.value(4, 4) == pytest.approx(0.25 * math.exp(-0.5 * 16 / 4))
    with pytest.raises(ValueError):
        GaussianForm(dimension=2, amplitude=-1.0, decay=0.5, distance_kind="graph")
    with pytest.raises(ValueError):
        GaussianForm(dimension=2, amplitude=1.0, decay=0.5, distance_kind="bogus")


@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 30))
@settings(max_examples=50)
def test_gaussian_form_monotone_in_distance(d, n, dist):
    form = lclt_form(d)
    closer, farther = form.value(n, dist), form.value(n, dist + 1)
    assert farther <= closer
    if farther > 0.0:  # values can underflow to zero at extreme distances
        assert farther < closer


def test_lclt_form_matches_central_value():
    # The limiting on-diagonal constant: p_n(0,0) * n^{d/2} -> 2 (d/(2 pi))^{d/2}.
    for d in (1, 2):
        form = lclt_form(d)
        assert form.amplitude == pytest.approx(2.0 * (d / (2 * math.pi)) ** (d / 2))
        assert form.decay == pytest.approx(d / 2)


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


def test_near_diagonal_lower_fit_shrinks_with_wider_windows():
    fits = [
        near_diagonal_audit(2, 32, L=L).constants["N2"] for L in (0.5, 0.7, 0.9)
    ]
    assert fits[0] >= fits[1] >= fits[2] > 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_fit_audits_pass(d):
    lower = gaussian_lower_audit(d, 32)
    upper = gaussian_upper_audit(d, 32)
    assert lower.passed and upper.passed
    assert lower.constants["L1"] > 0.0
    assert upper.constants["U1"] >= 1.0


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
    paired = closed_form_n_step((40, -40), 9000) + closed_form_n_step((40, -40), 9001)
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
def test_chain_batch_all_valid(d):
    report = chain_certificate_batch(d, 25, seed=3)
    assert report.passed
    assert report.constants["infeasible"] == 0
    assert len(report.rows) == 25
    for row in report.rows:
        assert row["log_margin"] >= 0.0
