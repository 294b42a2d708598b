"""Exit-time distributions: exact DP, tail bounds, Monte Carlo replay."""

import math
import tracemalloc

import numpy as np
import pytest

from harnack.exit_time import (
    _MC_BLOCK,
    _MC_STREAM,
    chernoff_audit,
    exit_walks,
    crude_tail_audit,
    exact_exit_cdf,
    lazy_reduction_cdf,
    mc_consistency_audit,
    mc_exit_sample,
)
from harnack import harmonic
from harnack.harmonic import dirichlet_mc
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
    for step, exits in exit_walks(B, (0,) * d, samples, 5, _MC_STREAM, n_max):
        for n in range(step, n_max + 1):
            exited_by[n] += len(exits)
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


@pytest.mark.parametrize("n_max", [0, -2])
def test_mc_consistency_audit_needs_a_step(n_max):
    # n = 0 alone compares 0 with 0, which checks nothing.
    with pytest.raises(ValueError, match="n_max >= 1"):
        mc_consistency_audit(2, 4, n_max, seed=0)


def exit_walks_reference(D, x, samples, seed, stream, step_cap):
    """The walker indexing ``D.neighbor_index[pos, k]`` with int64 draws, block by block; int32 results."""
    m, steps = D.neighbor_index.shape
    start = D.index_of(as_point(x))
    done = 0
    block_index = 0
    while done < samples:
        count = min(65_536, samples - done)
        rng = philox(seed, stream=(stream << 32) | block_index)
        pos = np.full(count, start)
        active = np.arange(count)
        exit_step = np.full(count, step_cap + 1, dtype=np.int32)
        exit_index = np.full(count, -1, dtype=np.int32)
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


def reference_events(blocks, step_cap):
    """``(n, exit indices)`` for each step of each reference block where some walker leaves."""
    for exit_step, exit_index in blocks:
        for n in range(1, step_cap + 1):
            if (exit_step == n).any():
                yield n, exit_index[exit_step == n]


@pytest.mark.parametrize("d,R,x,step_cap", [(1, 5, (2,), 30), (2, 4, (1, -1), 20), (3, 3, (0, 1, 0), 12)])
def test_exit_walks_match_the_reference_walker(d, R, x, step_cap):
    B = make_ball((0,) * d, R)
    events = list(exit_walks(B, x, 70_000, 5, 0xE417, step_cap))
    reference = list(exit_walks_reference(B, x, 70_000, 5, 0xE417, step_cap))
    assert len(reference) == 2
    expected = list(reference_events(reference, step_cap))
    assert len(events) == len(expected)
    for (n, exits), (ref_n, ref_exits) in zip(events, expected):
        assert n == ref_n and np.array_equal(exits, ref_exits)
        assert exits.dtype == ref_exits.dtype == np.int32
    capped = sum(int((index < 0).sum()) for _, index in reference)
    assert 70_000 - sum(len(exits) for _, exits in events) == capped
    assert 0 < capped < 70_000  # some walkers outlast the cap, most exit


def test_dirichlet_mc_equals_the_per_walker_sums():
    # The reference reads phi at each walker's exit, sums with math.fsum
    # (exactly rounded) and takes the variance by two passes.  Bounds set
    # beforehand: binary64 rounding of a 10^5-term sum (mean) and the
    # cancellation in E[phi^2] - mean^2 (SE).
    B = make_ball((0, 0), 4)
    phi = philox(3, stream=1).random(len(B.outer_coords))
    samples = 100_000
    mean, se = dirichlet_mc(B, phi, (1, 0), samples, seed=11)
    walks = exit_walks_reference(B, (1, 0), samples, 11, harmonic._MC_STREAM, 10_000)
    exits = np.concatenate([index for _, index in walks])
    assert (exits >= 0).all()  # every reference walker left within its cap
    values = phi[exits]
    ref_mean = math.fsum(values) / samples
    ref_se = math.sqrt(math.fsum((values - ref_mean) ** 2) / (samples - 1) / samples)
    assert abs(mean - ref_mean) <= 1e-14 * abs(ref_mean)
    assert abs(se - ref_se) <= 1e-13 * ref_se


@pytest.mark.parametrize("walk", ["exit", "dirichlet"])
@pytest.mark.parametrize("blocks", [1, 2])
def test_a_walker_block_holds_a_few_int32_arrays(walk, blocks):
    # one block of 65,536 walkers holds one int32 array (the positions of
    # the walkers still inside) and one step's temporaries; a second block
    # starts after the first block's array is released
    B = make_ball((0,), 4)
    if walk == "exit":
        run = lambda: mc_exit_sample(B, (0,), 64, blocks * _MC_BLOCK, 0)
    else:
        run = lambda: dirichlet_mc(B, np.arange(2.0), (0,), blocks * _MC_BLOCK, 0)
    run()  # first-call allocations (the ball's arrays) out of the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 17 bytes per walker measured, at one block and at two; per-walker
    # result buffers beside the positions (29) exceed it
    assert peak / _MC_BLOCK < 20
