"""Exit-time distributions: exact DP, tail bounds, Monte Carlo replay."""

import math

import numpy as np
import pytest

from harnack.exit_time import (
    _MC_STREAM,
    chernoff_audit,
    exit_walks,
    crude_tail_audit,
    exact_exit_cdf,
    lazy_reduction_cdf,
    mc_consistency_audit,
    mc_exit_sample,
)
from harnack.kernel import iter_killed_vectors
from harnack.lattice import as_point, make_ball
from harnack.rng import philox


def test_exit_cdf_matches_hand_enumeration():
    # From the centre of (-1, 0, 1), exits happen only at even steps:
    # survive two steps with probability 1/2, each epoch independent.
    B = make_ball((0,), 1)
    cdf = exact_exit_cdf(B, (0,), 6)
    assert list(cdf) == [0.0, 0.0, 0.5, 0.5, 0.75, 0.75, 0.875]
    assert 1 - cdf[4] == 0.25


def test_exit_cdf_monotone_and_off_center_start():
    B = make_ball((0, 0), 3)
    cdf = exact_exit_cdf(B, (2, 1), 40)
    assert (np.diff(cdf) >= -1e-16).all()
    assert cdf[0] == 0.0
    # From the inner boundary one step can leave: P(exit at step 1) > 0.
    assert cdf[1] > 0.0


def test_exit_cdf_rejects_outside_start():
    with pytest.raises(ValueError):
        exact_exit_cdf(make_ball((0,), 2), (5,), 4)


def test_chernoff_bound_formula():
    # Each row's bound is 2d exp(-R^2 / (4 d n)) at its tightest step n.
    for d, radii in ((1, [4, 8]), (2, [4, 8, 12])):
        for row in chernoff_audit(d, radii).rows:
            R, n = row["R"], row["tight_n"]
            expected = 2.0 * d * math.exp(-(R * R) / (4.0 * d * n))
            assert row["chernoff_bound"] == pytest.approx(expected, rel=1e-15)
    (row,) = chernoff_audit(1, [4]).rows
    assert row["vacuous_rows"] > 0  # early steps have bound >= 1


@pytest.mark.parametrize("d,R", [(1, 5), (2, 4)])
def test_lazy_reduction_dominates_exact_cdf(d, R):
    n_max = 3 * R * R
    B = make_ball((0,) * d, R)
    exact = exact_exit_cdf(B, (0,) * d, n_max)
    reduced = lazy_reduction_cdf(d, R, n_max)
    assert (exact <= reduced + 1e-12).all()


def test_chernoff_audit_passes_with_nonvacuous_points():
    report = chernoff_audit(1, [4, 8])
    assert report.passed
    assert report.worst is not None  # at least one non-vacuous point
    assert report.constants["vacuous_points"] < report.constants["checked_points"]


def test_crude_tail_audit_finds_negligible_survival():
    report = crude_tail_audit(2, 4)
    assert report.passed
    assert report.constants["search_n"] > 0
    assert report.constants["search_survival"] < 1e-6


def test_crude_tail_search_continues_one_walk(monkeypatch):
    from harnack import exit_time

    steps = []

    def counting(*args):
        for item in iter_killed_vectors(*args):
            steps.append(item[0])
            yield item

    monkeypatch.setattr(exit_time, "iter_killed_vectors", counting)
    report = crude_tail_audit(1, 4)  # grid maximum 9 R^2 = 144, then doubling
    search_n = report.constants["search_n"]
    assert search_n > 144
    assert steps == list(range(search_n + 1))  # one walk, no step repeated


def test_mc_replay_is_bit_exact():
    B = make_ball((0, 0), 2)
    a = mc_exit_sample(B, (0, 0), 12, samples=30_000, seed=42)
    b = mc_exit_sample(B, (0, 0), 12, samples=30_000, seed=42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = mc_exit_sample(B, (0, 0), 12, samples=30_000, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_mc_agrees_with_exact_within_four_se():
    B = make_ball((0,), 2)
    exact = exact_exit_cdf(B, (0,), 16)
    estimates, standard_errors = mc_exit_sample(B, (0,), 16, samples=20_000, seed=0)
    assert estimates.shape == standard_errors.shape == (17,)
    assert (np.abs(estimates - exact) <= 4.0 * standard_errors + 1e-12).all()


@pytest.mark.parametrize("d,R,n_max,samples", [(1, 4, 40, 5_000), (2, 3, 30, 7_000), (1, 2, 6, 1)])
def test_mc_arrays_equal_the_per_step_arithmetic(d, R, n_max, samples):
    # p = exited_by / samples and SE = sqrt(p(1-p) s/(s-1)) / sqrt(s), step by step with math.sqrt.
    B = make_ball((0,) * d, R)
    estimates, standard_errors = mc_exit_sample(B, (0,) * d, n_max, samples, seed=5)
    exited_by = np.zeros(n_max + 1, dtype=np.int64)
    for exit_step, _ in exit_walks(B, (0,) * d, samples, 5, _MC_STREAM, n_max):
        for n in range(n_max + 1):
            exited_by[n] += int((exit_step <= n).sum())
    for n in range(n_max + 1):
        p_hat = exited_by[n] / samples
        se = (
            math.sqrt(p_hat * (1.0 - p_hat) * samples / (samples - 1)) / math.sqrt(samples)
            if samples > 1
            else 0.0
        )
        assert estimates[n] == p_hat and standard_errors[n] == se


def test_mc_consistency_audit_passes():
    report = mc_consistency_audit(1, 3, 36, seed=7)
    assert report.passed
    assert report.constants["max_z"] <= 4.0


def exit_walks_reference(D, x, samples, seed, stream, step_cap):
    """The walker indexing ``D.neighbor_index[pos, k]`` with int64 draws, block by block."""
    m, steps = D.neighbor_index.shape
    start = D.index_of(as_point(x))
    done = 0
    block_index = 0
    while done < samples:
        count = min(65_536, samples - done)
        rng = philox(seed, stream=(stream << 32) | block_index)
        pos = np.full(count, start)
        active = np.arange(count)
        exit_step = np.full(count, step_cap + 1, dtype=np.int64)
        exit_index = np.full(count, -1, dtype=np.int64)
        for n in range(1, step_cap + 1):
            if active.size == 0:
                break
            pos = D.neighbor_index[pos, rng.integers(0, steps, size=active.size)]
            hit = pos >= m
            if hit.any():
                exit_step[active[hit]] = n
                exit_index[active[hit]] = pos[hit] - m
                pos = pos[~hit]
                active = active[~hit]
        yield exit_step, exit_index
        done += count
        block_index += 1


@pytest.mark.parametrize("d,R,x,step_cap", [(1, 5, (2,), 30), (2, 4, (1, -1), 20), (3, 3, (0, 1, 0), 12)])
def test_exit_walks_match_the_reference_walker(d, R, x, step_cap):
    B = make_ball((0,) * d, R)
    blocks = list(exit_walks(B, x, 70_000, 5, 0xE417, step_cap))
    reference = list(exit_walks_reference(B, x, 70_000, 5, 0xE417, step_cap))
    assert len(blocks) == len(reference) == 2
    for (step, index), (ref_step, ref_index) in zip(blocks, reference):
        assert np.array_equal(step, ref_step) and np.array_equal(index, ref_index)
        assert step.dtype == ref_step.dtype and index.dtype == ref_index.dtype
    capped = np.concatenate([index for _, index in blocks]) < 0
    assert 0 < capped.sum() < len(capped)  # some walkers outlast the cap, most exit
