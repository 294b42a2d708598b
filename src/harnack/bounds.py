"""Gaussian-shape audits for the simple-walk kernel.

Four bound families are fitted as grid extrema over exact kernels
(near-diagonal upper/lower and global upper/lower in graph distance), the
kernel is compared against its sharp Gaussian limit in euclidean form, and
long-range lower bounds are certified by an explicit ball-chaining product
that is always dominated by the exact probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import iter_free_fields, walk_pmf
from .lattice import Point, as_point, graph_distance, l1_path, make_ball
from .report import AuditReport
from .rng import philox

_DECAY_GRID = np.geomspace(1.0 / 64, 8.0, 32)
_BATCH_STREAM = 0xC4A1  # stream tag for random chain-certificate instances


class InfeasibleCertificateError(RuntimeError):
    """No integer block count fits the chaining window for (x, y, n, L)."""


@dataclass(frozen=True)
class GaussianForm:
    """A Gaussian comparison profile ``A * n^(-d/2) * exp(-B * dist^2 / n)``."""

    dimension: int
    amplitude: float
    decay: float
    distance_kind: str  # "graph" or "euclidean"

    def __post_init__(self):
        if self.amplitude <= 0 or self.decay <= 0:
            raise ValueError("amplitude and decay must be positive")
        if self.distance_kind not in ("graph", "euclidean"):
            raise ValueError("distance_kind must be 'graph' or 'euclidean'")

    def value(self, n: int, distance: float) -> float:
        """Evaluate the profile at time n and the given distance."""
        t = max(n, 1)
        return (
            self.amplitude
            * t ** (-self.dimension / 2.0)
            * math.exp(-self.decay * distance * distance / t)
        )


def lclt_form(d: int) -> GaussianForm:
    """The sharp Gaussian limit of the walk in euclidean distance.

    Each coordinate has per-step variance 1/d, so on the admissible parity
    class ``p_n(0, y) ~ 2 (d / (2 pi n))^{d/2} exp(-d |y|_2^2 / (2n))``.
    """
    return GaussianForm(
        dimension=d,
        amplitude=2.0 * (d / (2.0 * math.pi)) ** (d / 2.0),
        decay=d / 2.0,
        distance_kind="euclidean",
    )


def _box_distances(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(graph, squared-euclidean) distance arrays over the centered box."""
    axes = np.meshgrid(*([np.arange(-n, n + 1)] * d), indexing="ij")
    graph = sum(np.abs(a) for a in axes)
    euclid2 = sum(a * a for a in axes)
    return graph, euclid2


def lclt_error_scan(
    d: int,
    n_range: tuple[int, int],
    radius_factor: float = 4.0,
    growth_cap: float = 2.0,
) -> AuditReport:
    """Scan the sup-norm error of the kernel against its Gaussian limit.

    For each n in the range the error ``e_n = sup |p_n - gaussian|`` is taken
    over same-parity points with euclidean norm at most
    ``radius_factor * sqrt(n)`` and reported scaled by ``n^(d/2 + 1)``.
    A bounded scaled sequence certifies the expected decay order; pass
    requires its maximum to stay within ``growth_cap`` times its value at
    the first scanned n (the sequence may creep toward its asymptote, so
    the cap tests boundedness, not monotonicity).
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 2 or hi > 128 or lo > hi:
        raise ValueError("supported scan window is 2 <= n_lo <= n_hi <= 128")
    form = lclt_form(d)
    rows = []
    for n, field in iter_free_fields(d, hi):
        if n < lo:
            continue
        graph, euclid2 = _box_distances(d, n)
        window = (euclid2 <= (radius_factor * radius_factor) * n) & (
            (graph - n) % 2 == 0
        )
        gauss = (
            form.amplitude
            * float(n) ** (-d / 2.0)
            * np.exp(-form.decay * euclid2 / float(n))
        )
        err = float(np.abs(field - gauss)[window].max())
        rows.append(
            {"n": n, "sup_error": err, "scaled_error": err * float(n) ** (d / 2.0 + 1)}
        )
    scaled = np.array([row["scaled_error"] for row in rows])
    ns = np.array([row["n"] for row in rows])
    peak = int(scaled.argmax())
    passed = bool(scaled[peak] <= growth_cap * scaled[0])
    return AuditReport(
        audit_id=f"bounds.lclt.d{d}",
        grid={
            "d": d,
            "n": [lo, hi],
            "radius_factor": radius_factor,
            "growth_cap": growth_cap,
        },
        constants={
            "amplitude": form.amplitude,
            "decay": form.decay,
            "max_scaled_error": float(scaled.max()),
            "first_scaled_error": float(scaled[0]),
        },
        worst={"n": int(ns[peak]), "scaled_error": float(scaled[peak])},
        passed=passed,
        notes=[
            "euclidean Gaussian profile with per-coordinate variance 1/d",
            "scaled error = sup-error * n^(d/2+1); max capped at growth_cap x first value",
        ],
        rows=rows,
    )


def near_diagonal_audit(d: int, n_max: int, L: float = 0.7) -> AuditReport:
    """Fit the near-diagonal amplitude window of the kernel.

    ``N1`` is the largest value of ``p_n(0,y) * max(n,1)^{d/2}`` over the full
    grid; ``N2`` is the smallest value of ``(p_n + p_{n+1})(0,y) * n^{d/2}``
    over points admissible at lag L, i.e. ``n >= max(1, dist^2) / L^2``.
    Pass requires N2 > 0 (the paired kernel never vanishes on-diagonal-scale).
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must lie in (0, 1)")
    if n_max > 128:
        raise ValueError("n_max above the supported desk-scale window (128)")
    n1 = 0.0
    n1_witness = None
    n2 = math.inf
    n2_witness = None
    prev = None
    for n, field in iter_free_fields(d, n_max + 1):
        if n <= n_max:
            cand = float(field.max()) * max(n, 1) ** (d / 2.0)
            if cand > n1:
                n1 = cand
                n1_witness = {"n": n, "value": cand}
        if prev is not None:
            m = n - 1  # pair (p_m, p_{m+1}) with p_{m+1} restricted to the box of p_m
            if 1 <= m <= n_max:
                pair = prev + field[tuple(slice(1, s - 1) for s in field.shape)]
                graph, _ = _box_distances(d, m)
                admissible = np.maximum(graph * graph, 1) <= (L * L) * m
                if admissible.any():
                    cand = float(pair[admissible].min()) * m ** (d / 2.0)
                    if cand < n2:
                        n2 = cand
                        n2_witness = {"n": m, "value": cand}
        prev = field
    passed = bool(n2 > 0 and math.isfinite(n2))
    return AuditReport(
        audit_id=f"bounds.near_diagonal.d{d}",
        grid={"d": d, "n_max": n_max, "L": L},
        constants={"N1": n1, "N2": n2},
        worst={"N1_at": n1_witness, "N2_at": n2_witness},
        passed=passed,
        notes=[
            "N1 = max p_n * max(n,1)^(d/2) over the full grid",
            "N2 = min (p_n + p_{n+1}) * n^(d/2) over n >= max(1, dist^2)/L^2",
        ],
        rows=[],
    )


def gaussian_lower_audit(
    d: int, n_max: int, decay_grid: Sequence[float] | None = None
) -> AuditReport:
    """Two-parameter lower-bound fit for the paired kernel in graph distance.

    For each trial decay ``c`` on a log grid, the amplitude
    ``L1(c) = min (p_n + p_{n+1}) * n^{d/2} * exp(+c dist^2 / n)`` is taken
    over ``1 <= n <= n_max`` and ``dist(0,y) <= n``; the reported pair
    maximizes the amplitude.  Pass requires a strictly positive fit.
    """
    grid = np.asarray(_DECAY_GRID if decay_grid is None else decay_grid, dtype=float)
    log_amp = np.full(grid.shape, np.inf)
    witness_n = np.zeros(grid.shape, dtype=int)
    prev = None
    for n, field in iter_free_fields(d, n_max + 1):
        if prev is not None:
            m = n - 1
            if m >= 1:
                pair = prev + field[tuple(slice(1, s - 1) for s in field.shape)]
                graph, _ = _box_distances(d, m)
                mask = graph <= m
                logs = np.log(pair[mask]) + (d / 2.0) * math.log(m)
                ratio = (graph[mask].astype(float) ** 2) / m
                cand = (logs[None, :] + grid[:, None] * ratio[None, :]).min(axis=1)
                better = cand < log_amp
                log_amp[better] = cand[better]
                witness_n[better] = m
        prev = field
    amplitudes = np.exp(log_amp)
    best = int(amplitudes.argmax())
    passed = bool(amplitudes[best] > 0 and np.isfinite(amplitudes[best]))
    return AuditReport(
        audit_id=f"bounds.gaussian_lower.d{d}",
        grid={"d": d, "n_max": n_max, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"L1": float(amplitudes[best]), "L2": float(grid[best])},
        worst={"binding_n": int(witness_n[best])},
        passed=passed,
        notes=["L1(c) = min pair * n^(d/2) * exp(+c dist^2/n) over dist <= n"],
        rows=[
            {"decay": float(c), "amplitude": float(a)}
            for c, a in zip(grid, amplitudes)
        ],
    )


def gaussian_upper_audit(
    d: int, n_max: int, decay_grid: Sequence[float] | None = None
) -> AuditReport:
    """Two-parameter upper-bound fit for the kernel in graph distance.

    For each trial decay ``c`` below the single-path rate ``log(2d)`` the
    amplitude ``U1(c) = max p_n * max(n,1)^{d/2} * exp(+c dist^2 / max(n,1))``
    is taken over ``0 <= n <= n_max`` (zero-kernel points impose nothing);
    the reported pair minimizes the amplitude.  Pass requires a finite fit
    with ``U1 >= 1`` (forced by the n = 0 diagonal).
    """
    rate = math.log(2 * d)
    if decay_grid is None:
        grid = np.geomspace(1.0 / 64, 0.9 * rate, 32)
    else:
        grid = np.asarray(decay_grid, dtype=float)
        if (grid >= rate).any():
            raise ValueError(f"decay values must stay below log(2d) = {rate:.4f}")
    log_amp = np.full(grid.shape, -np.inf)
    witness_n = np.zeros(grid.shape, dtype=int)
    for n, field in iter_free_fields(d, n_max):
        graph, _ = _box_distances(d, n)
        t = max(n, 1)
        mask = field > 0
        logs = np.log(field[mask]) + (d / 2.0) * math.log(t)
        ratio = (graph[mask].astype(float) ** 2) / t
        cand = (logs[None, :] + grid[:, None] * ratio[None, :]).max(axis=1)
        better = cand > log_amp
        log_amp[better] = cand[better]
        witness_n[better] = n
    amplitudes = np.exp(log_amp)
    best = int(amplitudes.argmin())
    passed = bool(np.isfinite(amplitudes[best]) and amplitudes[best] >= 1.0)
    return AuditReport(
        audit_id=f"bounds.gaussian_upper.d{d}",
        grid={"d": d, "n_max": n_max, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"U1": float(amplitudes[best]), "U2": float(grid[best])},
        worst={"binding_n": int(witness_n[best])},
        passed=passed,
        notes=[
            "U1(c) = max p_n * max(n,1)^(d/2) * exp(+c dist^2/max(n,1))",
            "decay grid kept below log(2d), the ballistic single-path rate",
        ],
        rows=[
            {"decay": float(c), "amplitude": float(a)}
            for c, a in zip(grid, amplitudes)
        ],
    )


def _free_prob(d: int, n: int, offsets: np.ndarray) -> np.ndarray:
    """p_n(0, z) for an array of offsets via the closed forms (d <= 2).

    d = 2 uses the diagonal rotation into two independent 1-d walks:
    ``p_n(0,(a,b)) = q_n(a+b) * q_n(a-b)`` with q the 1-d walk pmf.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
    if d == 1:
        return walk_pmf(n, offsets[:, 0])
    if d == 2:
        return walk_pmf(n, offsets[:, 0] + offsets[:, 1]) * walk_pmf(
            n, offsets[:, 0] - offsets[:, 1]
        )
    raise ValueError("closed-form evaluation is implemented for d in {1, 2}")


@dataclass(frozen=True)
class ChainCertificate:
    """A ball-chaining lower-bound certificate for a long-range pair."""

    x: Point
    y: Point
    n: int
    L: float
    distance: int
    blocks: int  # m, the number of chain legs
    segment: int  # r = floor(distance / m)
    leg_time: int  # s = floor(n / m)
    waypoints: tuple[Point, ...]
    times: tuple[int, ...]
    log_product: float
    product: float
    direct_value: float
    side_lower_ok: bool  # 3r + 1 <= L sqrt(s)
    side_upper_ok: bool  # L sqrt(s) <= 16 r

    @property
    def valid(self) -> bool:
        """The certificate is a true lower bound for the paired kernel."""
        return (
            self.side_lower_ok
            and self.side_upper_ok
            and self.log_product <= math.log(self.direct_value)
        )


def chain_certificate(x, y, n: int, L: float) -> ChainCertificate:
    """Build the ball-chaining lower bound for ``p_n + p_{n+1}`` at (x, y).

    Requires the long-range window ``(2^6 / L^2) dist <= n <= dist^2 / L^2``.
    The path is split into m legs (``2^5 dist^2/(L^2 n) <= m <= twice that``)
    with waypoints on a geodesic, segment lengths r/r+1 and leg times s/s+1;
    the product of leg probabilities — into a ball of radius r for the first
    m-1 legs, onto the exact endpoint (parity-paired) for the last — is a
    sub-event bound, so it can never exceed the direct paired probability.
    Longer segments and longer leg times are assigned to the earliest legs.
    """
    x = as_point(x)
    y = as_point(y)
    d = len(x)
    if d not in (1, 2):
        raise ValueError("chain certificates are desk-scale; d in {1, 2} only")
    if not 0.0 < L < 1.0:
        raise ValueError("L must lie in (0, 1)")
    R = graph_distance(x, y)
    if R == 0:
        raise ValueError("x and y must be distinct")
    ll = L * L
    if not (64.0 * R <= n * ll * (1 + 1e-12) and n * ll <= R * R * (1 + 1e-12)):
        raise ValueError(
            f"n={n} outside the long-range window for dist={R}, L={L}"
        )
    m_lo = 32.0 * R * R / (L * L * n)
    m_hi = 64.0 * R * R / (L * L * n)
    m = math.ceil(m_lo)
    if m > m_hi:
        raise InfeasibleCertificateError(
            f"no integer block count in [{m_lo:.3f}, {m_hi:.3f}]"
        )
    r, seg_rem = divmod(R, m)
    s, time_rem = divmod(n, m)
    side_lower_ok = 3 * r + 1 <= L * math.sqrt(s)
    side_upper_ok = L * math.sqrt(s) <= 16 * r

    path = l1_path(x, y)
    lengths = [r + 1] * seg_rem + [r] * (m - seg_rem)
    cuts = np.cumsum([0] + lengths)
    waypoints = tuple(path[c] for c in cuts)
    times = tuple([s + 1] * time_rem + [s] * (m - time_rem))

    offset = np.array(y, dtype=np.int64) - np.array(x, dtype=np.int64)
    direct = float(_free_prob(d, n, offset[None, :]).sum()) + float(
        _free_prob(d, n + 1, offset[None, :]).sum()
    )
    log_product = 0.0
    if m == 1:
        # Single leg: the chain event is the direct paired event itself.
        log_product = math.log(direct) if direct > 0 else -math.inf
    else:
        balls = [make_ball(waypoints[i], r).coords for i in range(1, m)]
        # First leg: from x into the first ball.
        first = float(_free_prob(d, times[0], balls[0] - np.array(x)).sum())
        log_product += math.log(first) if first > 0 else -math.inf
        # Middle legs: worst start in the current ball into the next ball.
        for i in range(1, m - 1):
            src, dst = balls[i - 1], balls[i]
            diff = dst[None, :, :] - src[:, None, :]
            probs = _free_prob(d, times[i], diff.reshape(-1, d)).reshape(
                len(src), len(dst)
            )
            worst = float(probs.sum(axis=1).min())
            log_product += math.log(worst) if worst > 0 else -math.inf
        # Final leg: worst start in the last ball onto y, parity-paired.
        src = balls[-1]
        offs = np.array(y) - src
        paired = _free_prob(d, times[-1], offs) + _free_prob(d, times[-1] + 1, offs)
        worst = float(paired.min())
        log_product += math.log(worst) if worst > 0 else -math.inf

    return ChainCertificate(
        x=x,
        y=y,
        n=n,
        L=L,
        distance=R,
        blocks=m,
        segment=r,
        leg_time=s,
        waypoints=waypoints,
        times=times,
        log_product=log_product,
        product=math.exp(log_product) if math.isfinite(log_product) else 0.0,
        direct_value=direct,
        side_lower_ok=side_lower_ok,
        side_upper_ok=side_upper_ok,
    )


def random_chain_instance(
    d: int,
    rng,
    r_range: tuple[int, int] = (64, 96),
    l_range: tuple[float, float] = (0.6, 0.95),
    n_cap: int = 20_000,
) -> tuple[Point, Point, int, float]:
    """Draw one admissible (x, y, n, L) for the chaining window."""
    while True:
        R = int(rng.integers(r_range[0], r_range[1] + 1))
        L = float(rng.uniform(l_range[0], l_range[1]))
        lo = math.ceil(64.0 * R / (L * L))
        hi = min(math.floor(R * R / (L * L)), n_cap)
        if lo > hi:
            continue
        n = int(rng.integers(lo, hi + 1))
        if d == 1:
            y = (R if rng.integers(0, 2) else -R,)
        else:
            a = int(rng.integers(0, R + 1))
            sx = -1 if rng.integers(0, 2) else 1
            sy = -1 if rng.integers(0, 2) else 1
            y = (sx * a, sy * (R - a))
        return (0,) * d, y, n, L


def chain_certificate_batch(
    d: int,
    count: int,
    seed: int,
    r_range: tuple[int, int] = (64, 96),
    l_range: tuple[float, float] = (0.6, 0.95),
    n_cap: int = 20_000,
) -> AuditReport:
    """Build many random admissible chain certificates and audit validity."""
    rng = philox(seed, stream=_BATCH_STREAM)
    rows = []
    infeasible = 0
    all_valid = True
    worst = None
    for _ in range(count):
        x, y, n, L = random_chain_instance(d, rng, r_range, l_range, n_cap)
        try:
            cert = chain_certificate(x, y, n, L)
        except InfeasibleCertificateError:
            infeasible += 1
            rows.append({"y": y, "n": n, "L": L, "infeasible": True})
            continue
        margin = math.log(cert.direct_value) - cert.log_product
        rows.append(
            {
                "y": y,
                "n": n,
                "L": L,
                "blocks": cert.blocks,
                "log_product": cert.log_product,
                "direct": cert.direct_value,
                "log_margin": margin,
                "valid": cert.valid,
            }
        )
        all_valid &= cert.valid
        if worst is None or margin < worst["log_margin"]:
            worst = {"y": y, "n": n, "L": L, "log_margin": margin}
    return AuditReport(
        audit_id=f"bounds.chain.d{d}",
        grid={
            "d": d,
            "count": count,
            "seed": seed,
            "R": list(r_range),
            "L": list(l_range),
            "n_cap": n_cap,
        },
        constants={"infeasible": infeasible},
        worst=worst,
        passed=bool(all_valid),
        notes=["certificate valid iff chain product <= direct paired probability"],
        rows=rows,
    )
