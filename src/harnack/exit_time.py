"""Exit-time distributions from lattice balls and their tail-bound audits.

Exact exit CDFs come from the killed-kernel iteration; they are audited
against the sub-Gaussian tail ``2d exp(-R^2/(4dn))`` through the
one-dimensional lazy-walk reduction, against a crude geometric envelope,
and against seeded Monte Carlo replays.  Results are plain arrays over
n = 0..n_max: the exact CDF, and the Monte Carlo estimates with their
standard errors.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .kernel import iter_killed_vectors, lazy_walk
from .lattice import FiniteDomain, as_point, make_ball
from .report import AuditReport
from .rng import philox

_MC_STREAM = 0xE417  # stream tag for exit-time Monte Carlo draws
_MC_BLOCK = 65_536  # samples per block; per-block substreams merge order-free
N_MAX_FACTOR = 4  # the Chernoff audit checks 1 <= n <= N_MAX_FACTOR * R^2
SLACK = 1e-12  # the Chernoff chain's round-off allowance
TAIL_TARGET = 1e-6  # the crude-tail search runs until survival falls below it,
TAIL_MAX_N = 1 << 22  # or reaches this step
TAIL_SLACK = 1e-15  # the crude-tail gate's round-off allowance: survival <= envelope + TAIL_SLACK
MC_SAMPLES = 100_000  # walkers of the Monte Carlo cross-check
Z_CAP = 4.0  # the Monte Carlo gate: max |mc - exact| / se over all n


def exact_exit_cdf(B: FiniteDomain, x, n_max: int) -> np.ndarray:
    """Exact P^x(tau_B <= n) for n = 0..n_max via killed-kernel iteration."""
    x = as_point(x)
    if x not in B:
        raise ValueError(f"start {x} is not inside B({B.center}, {B.radius})")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = np.empty(n_max + 1)
    for n, block in iter_killed_vectors(B, [B.index_of(x)], n_max):
        values[n] = 1.0 - float(block[:, 0].sum())
    return values


def lazy_reduction_cdf(d: int, R: int, n_max: int) -> np.ndarray:
    """``d * P(one-coordinate lazy walk leaves [-floor(R/d), floor(R/d)] by n)``.

    Each coordinate of the d-dimensional walk is a lazy walk on Z (hold
    probability (d-1)/d); leaving the l1 ball of radius R forces some
    coordinate beyond R/d, and integer positions make the real threshold
    R/d equivalent to the integer interval of radius floor(R/d).
    """
    survival = np.array([law.sum() for _, law in lazy_walk(d, R // d, n_max)])
    return d * (1.0 - survival)


def chernoff_audit(d: int, r_values: Iterable[int]) -> AuditReport:
    """Audit the exit-tail chain exact <= d*lazy <= 2d exp(-R^2/(4dn)).

    For each radius the full range ``1 <= n <= N_MAX_FACTOR * R^2`` is
    checked, each inequality up to ``SLACK``.  Rows where the closed-form
    bound is >= 1 are flagged vacuous and excluded from the bound comparison
    (they carry no information), but the lazy-walk reduction inequality is
    still required there.
    """
    r_values = sorted(int(R) for R in r_values)
    rows = []
    worst = None
    all_pass = True
    vacuous_count = 0
    checked = 0
    for R in r_values:
        n_max = N_MAX_FACTOR * R * R
        B = make_ball((0,) * d, R)
        cdf = exact_exit_cdf(B, (0,) * d, n_max)
        lazy = lazy_reduction_cdf(d, R, n_max)
        n = np.arange(1, n_max + 1)
        bound = 2.0 * d * np.exp(-(R * R) / (4.0 * d * n))
        exact = cdf[1:]
        reduction_ok = exact <= lazy[1:] + SLACK
        vacuous = bound >= 1.0
        bound_ok = vacuous | (lazy[1:] <= bound + SLACK)
        ok = bool(reduction_ok.all() and bound_ok.all())
        all_pass &= ok
        vacuous_count += int(vacuous.sum())
        checked += n_max
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = np.where(vacuous, 0.0, exact / bound)
        i = int(margin.argmax())
        row = {
            "R": R,
            "n_max": n_max,
            "tight_n": int(n[i]),
            "exact": float(exact[i]),
            "lazy_bound": float(lazy[1:][i]),
            "chernoff_bound": float(bound[i]),
            "vacuous_rows": int(vacuous.sum()),
            "ok": ok,
        }
        rows.append(row)
        if worst is None or margin[i] > worst["margin"]:
            worst = {
                "R": R,
                "n": int(n[i]),
                "exact": float(exact[i]),
                "bound": float(bound[i]),
                "margin": float(margin[i]),
            }
    return AuditReport(
        audit_id=f"exit.chernoff.d{d}",
        grid={
            "d": d,
            "R": r_values,
            "n": f"1..{N_MAX_FACTOR}*R^2",
            "slack": SLACK,
        },
        constants={"checked_points": checked, "vacuous_points": vacuous_count},
        worst=worst,
        passed=bool(all_pass),
        notes=[
            "chain: exact <= d * lazy-walk reduction <= 2d exp(-R^2/(4dn))",
            "vacuous rows (bound >= 1) excluded from the bound comparison",
        ],
        rows=rows,
    )


def crude_tail_audit(d: int, R: int) -> AuditReport:
    """Audit that exit is certain: survival under a geometric envelope.

    In any window of ``3R`` steps the walk escapes with probability at least
    ``p = (2d)^(-3R)`` (follow a fixed geodesic to the boundary, length at
    most R+1 <= 3R), so ``P(tau_B > n) <= (1-p)^floor(n/(3R))``.  The audit
    checks domination on the steps R, 3R, R^2, 3R^2 and 9R^2 and runs a
    doubling search until survival falls below ``TAIL_TARGET`` or the step
    reaches ``TAIL_MAX_N``.
    """
    if R < 1:
        raise ValueError("need R >= 1")
    n_values = sorted({R, 3 * R, R * R, 3 * R * R, 9 * R * R})
    n_max = n_values[-1]
    B = make_ball((0,) * d, R)
    # the search doubles only steps below TAIL_MAX_N, so it stops before 2 * TAIL_MAX_N
    walk = iter_killed_vectors(B, [B.index_of((0,) * d)], max(n_max, 2 * TAIL_MAX_N))
    survivals = {}
    for n, block in walk:
        if n in n_values:
            survivals[n] = float(block[:, 0].sum())
        if n == n_max:
            break
    p = (2.0 * d) ** (-3.0 * R)
    rows = []
    all_pass = True
    for n in n_values:
        envelope = (1.0 - p) ** (n // (3 * R))
        ok = survivals[n] <= envelope + TAIL_SLACK
        all_pass &= ok
        rows.append({"n": n, "survival": survivals[n], "envelope": envelope, "ok": ok})
    # Doubling search: survival is monotone, the same walk continues from the
    # grid maximum.
    search_n = n_max
    survival = survivals[n_max]
    while survival > TAIL_TARGET and search_n < TAIL_MAX_N:
        search_n *= 2
        for n, block in walk:
            if n == search_n:
                break
        survival = float(block[:, 0].sum())
    found = survival <= TAIL_TARGET
    all_pass &= found
    return AuditReport(
        audit_id=f"exit.crude_tail.d{d}",
        grid={"d": d, "R": R, "n": n_values, "target": TAIL_TARGET},
        constants={
            "escape_probability": p,
            "window": 3 * R,
            "search_n": search_n,
            "search_survival": survival,
        },
        worst=max(rows, key=lambda row: row["survival"] / max(row["envelope"], 1e-300)),
        passed=bool(all_pass),
        notes=[
            "envelope (1-p)^floor(n/(3R)) with p = (2d)^(-3R)",
            f"doubling search reached survival {survival:.3e} at n = {search_n}",
        ],
        rows=rows,
    )


def exit_walks(
    D: FiniteDomain, x, samples: int, seed: int, stream: int, step_cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded walks from ``x`` until they leave ``D``, block by block.

    Walkers run in blocks of at most 65,536, block ``b`` drawing from the
    substream ``(stream << 32) | b``; draw ``k`` moves a walker to its k-th
    neighbour in ``D.neighbor_index``.  Each block yields every walker's exit
    step and the outer-boundary index it stepped onto, as int32 arrays; a
    walker still inside after ``step_cap`` steps gets exit step
    ``step_cap + 1`` and index -1.  The walker state is int32 too, advanced
    in place and compacted as walkers leave; a block's arrays are dropped
    before the next block is walked.
    """
    x = as_point(x)
    if x not in D:
        raise ValueError(f"start {x} is not in the domain interior")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m, steps = D.neighbor_index.shape
    table = (D.neighbor_index * steps).astype(np.int32).ravel()  # row offsets of the neighbours
    start = D.index_of(x) * steps
    done = 0
    block_index = 0
    while done < samples:
        count = min(_MC_BLOCK, samples - done)
        rng = philox(seed, stream=(stream << 32) | block_index)
        pos = np.full(count, start, dtype=np.int32)  # row offset of each walker still inside
        active = np.arange(count, dtype=np.int32)
        exit_step = np.full(count, step_cap + 1, dtype=np.int32)
        exit_index = np.full(count, -1, dtype=np.int32)
        for n in range(1, step_cap + 1):
            if active.size == 0:
                break
            # int32 draws equal the int64 ones: one 32-bit bounded draw per value either way
            pos += rng.integers(0, steps, size=active.size, dtype=np.int32)
            pos = table.take(pos)  # bounds-checked gather
            hit = pos >= m * steps
            if hit.any():
                exit_step[active[hit]] = n
                exit_index[active[hit]] = pos[hit] // steps - m
                keep = ~hit
                pos = pos[keep]
                active = active[keep]
        yield exit_step, exit_index
        del exit_step, exit_index  # released before the next block is walked
        done += count
        block_index += 1


def mc_exit_sample(
    B: FiniteDomain, x, n_max: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of P^x(tau_B <= n) for n = 0..n_max, and their standard errors.

    Paths are simulated in independent blocks with per-block substreams of
    the counter-based generator, so the estimates depend only on ``seed``
    and ``samples`` (merging is order-independent).
    """
    exited_by = np.zeros(n_max + 1, dtype=np.int64)
    for exit_step, exit_index in exit_walks(B, x, samples, seed, _MC_STREAM, n_max):
        exited_by += np.cumsum(np.bincount(exit_step, minlength=n_max + 2))[: n_max + 1]
        del exit_step, exit_index  # released before the next block is walked
    p_hat = exited_by / samples
    if samples == 1:
        return p_hat, np.zeros(n_max + 1)
    se = np.sqrt(p_hat * (1.0 - p_hat) * samples / (samples - 1)) / math.sqrt(samples)
    return p_hat, se


def mc_consistency_audit(d: int, R: int, n_max: int, seed: int) -> AuditReport:
    """Cross-check the exact exit CDF against its Monte Carlo estimate.

    One simulation run of ``MC_SAMPLES`` walkers yields estimates for every
    n <= n_max; each must lie within ``Z_CAP`` standard errors of the exact
    value (a tiny absolute floor covers the SE = 0 endpoints where the
    estimate is 0 or 1).
    """
    B = make_ball((0,) * d, R)
    exact = exact_exit_cdf(B, (0,) * d, n_max)
    mc, se = mc_exit_sample(B, (0,) * d, n_max, MC_SAMPLES, seed)
    z = np.abs(mc - exact) / np.maximum(se, 1e-12)
    worst_n = int(z.argmax())
    rows = [
        {"n": n, "exact": exact[n], "mc": mc[n], "standard_error": se[n], "z": z[n]}
        for n in range(n_max + 1)
    ]
    worst_z = z[worst_n]
    worst = {"n": worst_n, "z": worst_z, "exact": exact[worst_n], "mc": mc[worst_n]}
    return AuditReport(
        audit_id=f"exit.mc.d{d}",
        grid={"d": d, "R": R, "n_max": n_max, "samples": MC_SAMPLES, "seed": seed},
        constants={"max_z": worst_z, "z_cap": Z_CAP},
        worst=worst,
        passed=bool(worst_z <= Z_CAP),
        notes=["replay with the recorded seed reproduces the estimates bit-exactly"],
        rows=rows,
    )
