"""Gaussian-shape audits for the simple-walk kernel.

Four bound families are fitted as grid extrema over exact kernels
(near-diagonal upper/lower and global upper/lower in graph distance), the
kernel is compared against its sharp Gaussian limit in euclidean form (the
``(amplitude, decay)`` pair of :func:`lclt_form`), and long-range lower
bounds are certified by an explicit ball-chaining product that is always
dominated by the exact probability.

Every graph-distance fit, and the killed fit in ``green``, reduces each
step to one extreme per distance shell and folds those in log space
(``_shell_extremes``, ``_EnvelopeFit``).  The lower fits take the paired
kernel ``p_m + p_{m+1}`` as the exact sum that ``_paired`` streams: the walk
is bipartite, so one term of every cell is an exact zero.  The free fits
run the dense DP up to ``DP_WINDOW`` steps and refuse a longer one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, partial, reduce

import numpy as np

from .kernel import _orthant_graph, iter_free_fields, walk_pmf
from .lattice import Point, as_point, graph_distance, l1_path, make_ball
from .report import AuditReport
from .rng import philox

_DECAY_GRID = np.geomspace(1.0 / 64, 8.0, 32)
DP_WINDOW = 128  # the desk-scale free DP: no free fit or scan runs past this step
_BATCH_STREAM = 0xC4A1  # stream tag for random chain-certificate instances
RADIUS_FACTOR = 4.0  # the LCLT scan's euclidean window, in units of sqrt(n)
GROWTH_CAP = 2.0  # the LCLT gate: max scaled error <= GROWTH_CAP x the first
LAG = 0.7  # the near-diagonal lag L: n is admissible once n >= max(1, dist^2) / L^2
R_RANGE = (64, 96)  # random chain instances: distance range,
L_RANGE = (0.6, 0.95)  # lag range
N_CAP = 20_000  # and step-count cap
CHAIN_INSTANCES = 50  # random chain certificates per batch


def lclt_form(d: int) -> tuple[float, float]:
    """``(amplitude, decay)`` of the walk's sharp Gaussian limit in euclidean distance.

    Each coordinate has per-step variance 1/d, so on the admissible parity
    class ``p_n(0, y) ~ 2 (d / (2 pi n))^{d/2} exp(-d |y|_2^2 / (2n))``.
    """
    return 2.0 * (d / (2.0 * math.pi)) ** (d / 2.0), d / 2.0


def _shell_extremes(values: np.ndarray, dist: np.ndarray, lower: bool) -> np.ndarray:
    """Min (``lower``) or max of ``values`` per distance shell r = 0..dist.max() (empty: +-inf)."""
    out = np.full(int(dist.max()) + 1, np.inf if lower else -np.inf)
    (np.minimum if lower else np.maximum).at(out, dist.ravel(), values.ravel())
    return out


def _paired(kernels):
    """Turn an iterator of ``(n, p_n)``, n = 0, 1, ..., into ``(m, p_m + p_{m+1})`` for m >= 1.

    Each pair adds ``p_m`` to the leading corner of ``p_{m+1}`` cut to its
    shape: a free orthant field grows by one cell per axis each step, so a
    free pair is ``{0..m}^d``, which holds every shell r <= m; a killed
    (start, target) block keeps its shape.  The walk is bipartite, so one
    term of every cell is an exact zero and each sum is its other term,
    bit for bit: the free DP keeps wrong-parity cells exactly zero (audited
    by ``kernel.exactness_audit``), and the killed fit in ``green`` reads a
    start's mass only on targets at a distance of the step's parity.
    """
    _, prev = next(kernels)
    for n, now in kernels:
        if n >= 2:
            yield n - 1, now[tuple(map(slice, prev.shape))] + prev
        prev = now


def _check_window(n_max: int) -> None:
    """``ValueError`` when a free fit's ``n_max`` is past ``DP_WINDOW``."""
    if n_max > DP_WINDOW:
        raise ValueError(f"n_max above the supported desk-scale window ({DP_WINDOW})")


class _EnvelopeFit:
    """Running extreme per decay ``c`` of ``log v + (d/2) log t + c dist^2 / t``, with witness.

    The minimum for a ``lower`` envelope, the maximum for an upper one.
    Values arrive as shell extremes: a shell shares ``dist`` and ``t``, and
    ``log`` and ``fl(a + b)`` are monotone in ``a``, so a shell's extreme
    gives exactly the extreme over its elements.
    """

    def __init__(self, d: int, grid: np.ndarray, lower: bool):
        self.d, self.grid, self.lower = d, grid, lower
        self.log_amp = np.full(grid.shape, np.inf if lower else -np.inf)
        self.witness: list = [None] * len(grid)

    def fold(self, shells: np.ndarray, t: int, witness) -> None:
        """Fold the shell extremes of time ``t`` (entry r: distance r).

        An improved decay records ``witness(r)`` of its binding shell r: ties
        go to the earliest fold, then the nearest shell.
        """
        r = np.arange(len(shells), dtype=float)
        with np.errstate(divide="ignore"):  # zero shells carry no constraint
            logs = np.log(shells) + (self.d / 2.0) * math.log(t)
        cand = logs[None, :] + self.grid[:, None] * (r * r / t)[None, :]
        at = cand.argmin(axis=1) if self.lower else cand.argmax(axis=1)
        best = cand[np.arange(len(self.grid)), at]
        for i in np.flatnonzero(best < self.log_amp if self.lower else best > self.log_amp):
            self.log_amp[i] = best[i]
            self.witness[i] = witness(int(at[i]))


def lclt_error_scan(d: int, n_range: tuple[int, int]) -> AuditReport:
    """Scan the sup-norm error of the kernel against its Gaussian limit.

    For each n in the range the error ``e_n = sup |p_n - gaussian|`` is taken
    over same-parity points with euclidean norm at most
    ``RADIUS_FACTOR * sqrt(n)`` and reported scaled by ``n^(d/2 + 1)``.
    A bounded scaled sequence certifies the expected decay order; pass
    requires its maximum to stay within ``GROWTH_CAP`` times its value at
    the first scanned n (the sequence may creep toward its asymptote, so
    the cap tests boundedness, not monotonicity).
    """
    lo, hi = operator.index(n_range[0]), operator.index(n_range[1])
    if lo < 2 or hi > DP_WINDOW or lo > hi:
        raise ValueError(f"supported scan window is 2 <= n_lo <= n_hi <= {DP_WINDOW}")
    amplitude, decay = lclt_form(d)
    rows = []
    for n, field in iter_free_fields(d, hi):
        if n < lo:
            continue
        graph = _orthant_graph(d, n)
        euclid2 = reduce(np.add.outer, [np.arange(n + 1) ** 2] * d)
        window = (euclid2 <= (RADIUS_FACTOR * RADIUS_FACTOR) * n) & (
            (graph - n) % 2 == 0
        )
        gauss = (
            amplitude
            * float(n) ** (-d / 2.0)
            * np.exp(-decay * euclid2 / float(n))
        )
        err = float(np.abs(field - gauss)[window].max())
        rows.append(
            {"n": n, "sup_error": err, "scaled_error": err * float(n) ** (d / 2.0 + 1)}
        )
    scaled = np.array([row["scaled_error"] for row in rows])
    ns = np.array([row["n"] for row in rows])
    peak = int(scaled.argmax())
    passed = bool(scaled[peak] <= GROWTH_CAP * scaled[0])
    return AuditReport(
        audit_id=f"bounds.lclt.d{d}",
        grid={
            "d": d,
            "n": [lo, hi],
            "radius_factor": RADIUS_FACTOR,
            "growth_cap": GROWTH_CAP,
        },
        constants={
            "amplitude": amplitude,
            "decay": decay,
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


def near_diagonal_audit(d: int, n_max: int) -> AuditReport:
    """Fit the near-diagonal amplitude window of the kernel.

    ``N1`` is the largest value of ``p_n(0,y) * max(n,1)^{d/2}`` over the full
    grid; ``N2`` is the smallest value of ``(p_n + p_{n+1})(0,y) * n^{d/2}``
    over points admissible at lag L = ``LAG``, i.e. ``n >= max(1, dist^2) / L^2``.
    Pass requires N2 > 0 (the paired kernel never vanishes on-diagonal-scale).
    ``ValueError`` when ``n_max * L^2 < 1``, where no time is admissible, or
    past ``DP_WINDOW``.
    """
    _check_window(n_max)
    if (LAG * LAG) * n_max < 1:  # as the admissibility test below reads it
        raise ValueError("n_max must reach 1/L^2, the first admissible time")
    n1, n1_witness = 0.0, None
    for n, field in iter_free_fields(d, n_max):
        cand = float(field.max()) * max(n, 1) ** (d / 2.0)
        if cand > n1:
            n1, n1_witness = cand, {"n": n, "value": cand}
    n2, n2_witness = math.inf, None
    for m, pair in _paired(iter_free_fields(d, n_max + 1)):
        admissible = np.maximum(np.arange(m + 1) ** 2, 1) <= (LAG * LAG) * m
        if admissible.any():
            shells = _shell_extremes(pair, _orthant_graph(d, m), lower=True)[: m + 1]
            cand = float(shells[admissible].min()) * m ** (d / 2.0)
            if cand < n2:
                n2, n2_witness = cand, {"n": m, "value": cand}
    passed = bool(n2 > 0 and math.isfinite(n2))
    return AuditReport(
        audit_id=f"bounds.near_diagonal.d{d}",
        grid={"d": d, "n_max": n_max, "L": LAG},
        constants={"N1": n1, "N2": n2},
        worst={"N1_at": n1_witness, "N2_at": n2_witness},
        passed=passed,
        notes=[
            "N1 = max p_n * max(n,1)^(d/2) over the full grid",
            "N2 = min (p_n + p_{n+1}) * n^(d/2) over n >= max(1, dist^2)/L^2",
        ],
        rows=[],
    )


def gaussian_lower_audit(d: int, n_max: int) -> AuditReport:
    """Two-parameter lower-bound fit for the paired kernel in graph distance.

    For each trial decay ``c`` on the log grid ``_DECAY_GRID``, the amplitude
    ``L1(c) = min (p_n + p_{n+1}) * n^{d/2} * exp(+c dist^2 / n)`` is taken
    over ``1 <= n <= n_max`` and ``dist(0,y) <= n``; the reported pair
    maximizes the amplitude.  Pass requires a strictly positive fit.
    ``ValueError`` past ``DP_WINDOW``.
    """
    _check_window(n_max)
    grid = _DECAY_GRID
    fit = _EnvelopeFit(d, grid, lower=True)
    for m, pair in _paired(iter_free_fields(d, n_max + 1)):
        fit.fold(_shell_extremes(pair, _orthant_graph(d, m), lower=True)[: m + 1], m, lambda r: m)
    amplitudes = np.exp(fit.log_amp)
    best = int(amplitudes.argmax())
    passed = bool(amplitudes[best] > 0 and np.isfinite(amplitudes[best]))
    return AuditReport(
        audit_id=f"bounds.gaussian_lower.d{d}",
        grid={"d": d, "n_max": n_max, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"L1": float(amplitudes[best]), "L2": float(grid[best])},
        worst={"binding_n": int(fit.witness[best])},
        passed=passed,
        notes=["L1(c) = min pair * n^(d/2) * exp(+c dist^2/n) over dist <= n"],
        rows=[
            {"decay": float(c), "amplitude": float(a)}
            for c, a in zip(grid, amplitudes)
        ],
    )


def gaussian_upper_audit(d: int, n_max: int) -> AuditReport:
    """Two-parameter upper-bound fit for the kernel in graph distance.

    For each trial decay ``c`` on a log grid from 1/64 to 0.9 times the
    single-path rate ``log(2d)`` the
    amplitude ``U1(c) = max p_n * max(n,1)^{d/2} * exp(+c dist^2 / max(n,1))``
    is taken over ``0 <= n <= n_max`` (zero-kernel points impose nothing);
    the reported pair minimizes the amplitude.  Pass requires a finite fit
    with ``U1 >= 1`` (forced by the n = 0 diagonal).  ``ValueError`` past
    ``DP_WINDOW``.
    """
    _check_window(n_max)
    grid = np.geomspace(1.0 / 64, 0.9 * math.log(2 * d), 32)
    fit = _EnvelopeFit(d, grid, lower=False)
    for n, field in iter_free_fields(d, n_max):
        fit.fold(_shell_extremes(field, _orthant_graph(d, n), lower=False), max(n, 1), lambda r: n)
    amplitudes = np.exp(fit.log_amp)
    best = int(amplitudes.argmin())
    passed = bool(np.isfinite(amplitudes[best]) and amplitudes[best] >= 1.0)
    return AuditReport(
        audit_id=f"bounds.gaussian_upper.d{d}",
        grid={"d": d, "n_max": n_max, "decay_grid": [float(grid[0]), float(grid[-1]), len(grid)]},
        constants={"U1": float(amplitudes[best]), "U2": float(grid[best])},
        worst={"binding_n": int(fit.witness[best])},
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


def _free_prob(pmf, offsets: np.ndarray) -> np.ndarray:
    """p_n(0, z) for an (m, d) integer array of offsets from ``pmf``, the 1-d walk pmf of step n.

    d = 2 uses the diagonal rotation into two independent 1-d walks:
    ``p_n(0,(a,b)) = q_n(a+b) * q_n(a-b)`` with q the 1-d walk pmf, both
    factors from one ``pmf`` call.
    """
    if offsets.shape[1] == 1:
        return pmf(offsets[:, 0])
    both = pmf(np.concatenate([offsets[:, 0] + offsets[:, 1], offsets[:, 0] - offsets[:, 1]]))
    return both[: len(offsets)] * both[len(offsets) :]


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


def _least_mass(pmf, sources: np.ndarray, targets: np.ndarray, steps) -> float:
    """Least mass, over ``sources``, that ``sum_{t in steps} p_t`` puts on ``targets``.

    ``pmf(t, sites)`` is the 1-d walk pmf of step t (see :func:`_free_prob`).
    Each source's mass is a row sum over the targets, added step by step.
    """
    diff = (targets[None, :, :] - sources[:, None, :]).reshape(-1, sources.shape[1])
    mass = 0.0
    for t in steps:
        mass = mass + _free_prob(partial(pmf, t), diff).reshape(len(sources), len(targets)).sum(axis=1)
    return float(mass.min())


def chain_certificate(x, y, n: int, L: float) -> ChainCertificate:
    """Build the ball-chaining lower bound for ``p_n + p_{n+1}`` at (x, y).

    Requires the long-range window ``(2^6 / L^2) dist <= n <= dist^2 / L^2``.
    The path is split into ``m = ceil(2^5 dist^2/(L^2 n))`` legs with
    waypoints on a geodesic, segment lengths r/r+1 and leg times s/s+1.  The
    count always fits the window ``2^5 dist^2/(L^2 n) <= m <= twice that``:
    ``n L^2 <= dist^2`` puts the lower end at 32 or more (31.99 with the
    window's round-off slack), and a ceiling adds less than 1.  One leg rule
    gives every value: the least mass, over a source set, that the leg's
    steps put on a target set.  The direct value is ``{x}`` onto ``{y}`` at
    n and n + 1; the first leg is ``{x}`` into the radius-r ball about the
    next waypoint, each middle leg ball into ball, and the last leg ball onto
    ``{y}`` at s and s + 1.  The product of the legs is a sub-event bound, so
    it can never exceed the direct paired probability.  Longer segments and
    longer leg times are assigned to the earliest legs.
    """
    x, y = as_point(x), as_point(y)
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
    m = math.ceil(32.0 * R * R / (L * L * n))
    r, seg_rem = divmod(R, m)
    s, time_rem = divmod(n, m)
    side_lower_ok = 3 * r + 1 <= L * math.sqrt(s)
    side_upper_ok = L * math.sqrt(s) <= 16 * r

    path = l1_path(x, y)
    lengths = [r + 1] * seg_rem + [r] * (m - seg_rem)
    cuts = np.cumsum([0] + lengths)
    waypoints = tuple(path[c] for c in cuts)
    times = tuple([s + 1] * time_rem + [s] * (m - time_rem))

    point = np.zeros((1, d), dtype=np.int64)
    direct = _least_mass(walk_pmf, point, point + np.subtract(y, x), (n, n + 1))
    # One exact pmf sweep per leg step count, over every site a leg can
    # reach: consecutive waypoints are at most r + 1 apart and the balls
    # have radius r, so no leg offset is longer than 3r + 1.
    span = 3 * r + 1
    sweeps = {t: walk_pmf(t, np.arange(-span, span + 1)) for t in {*times, times[-1] + 1}}
    ball = make_ball((0,) * d, r).coords

    # A leg runs from the set about its waypoint to the set ``step`` away, both
    # taken relative to the waypoint, so it depends only on its kind, step and
    # time: each distinct leg is computed once.
    @cache
    def leg_log(first: bool, last: bool, step: tuple[int, ...], t: int) -> float:
        mass = _least_mass(lambda k, sites: sweeps[k][sites + span], point if first else ball,
                           (point if last else ball) + step, (t, t + 1) if last else (t,))
        return math.log(mass) if mass > 0 else -math.inf

    log_product = 0.0
    for i, step in enumerate(np.diff(waypoints, axis=0).tolist()):
        log_product += leg_log(i == 0, i == m - 1, tuple(step), times[i])

    return ChainCertificate(
        x=x,
        y=y,
        n=n,
        L=L,
        distance=R,
        blocks=m,
        segment=r,
        waypoints=waypoints,
        times=times,
        log_product=log_product,
        product=math.exp(log_product),  # 0.0 when a leg is 0
        direct_value=direct,
        side_lower_ok=side_lower_ok,
        side_upper_ok=side_upper_ok,
    )


def random_chain_instance(d: int, rng) -> tuple[Point, Point, int, float]:
    """Draw one admissible (x, y, n, L): R in ``R_RANGE``, L in ``L_RANGE``, n <= ``N_CAP``.

    R = 64 is never drawn: its window ``64 R <= n L^2 <= R^2`` is the one real
    point ``n = 4096 / L^2``, an integer for no L met in practice.
    """
    while True:
        R = int(rng.integers(R_RANGE[0], R_RANGE[1] + 1))
        L = float(rng.uniform(L_RANGE[0], L_RANGE[1]))
        lo = math.ceil(64.0 * R / (L * L))
        hi = min(math.floor(R * R / (L * L)), N_CAP)
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


def chain_certificate_batch(d: int, seed: int) -> AuditReport:
    """Build ``CHAIN_INSTANCES`` random admissible chain certificates and audit validity.

    Every drawn instance is in the long-range window, so each certificate is
    built: its block count always fits (see :func:`chain_certificate`).
    """
    rng = philox(seed, stream=_BATCH_STREAM)
    rows = []
    all_valid = True
    worst = None
    for _ in range(CHAIN_INSTANCES):
        x, y, n, L = random_chain_instance(d, rng)
        cert = chain_certificate(x, y, n, L)
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
            "count": CHAIN_INSTANCES,
            "seed": seed,
            "R": list(R_RANGE),
            "L": list(L_RANGE),
            "n_cap": N_CAP,
        },
        constants={},
        worst=worst,
        passed=bool(all_valid),
        notes=["certificate valid iff chain product <= direct paired probability"],
        rows=rows,
    )
