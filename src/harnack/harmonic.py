"""Discrete harmonic functions on finite lattice domains.

The Laplacian here is the averaging operator minus the identity, so a
function is harmonic exactly when it equals its neighbor average.  A field
is an array over ``D``'s closure index (interior, then outer boundary; a
block of fields is one column each), and every operator takes ``D`` beside
it; boundary data are arrays over ``D.outer_coords``.
Boundary data enter through the walk's exit block: ``c = P(., ∂D) phi``
(``kernel.exit_coupling``) is the data's share of each neighbour average.
The Dirichlet problem is solved three independent ways (sparse LU, clamped
fixed-point iteration, Monte Carlo); harmonic measure ``H_D = G_D P(., ∂D)``
is one certified solve of the block's columns; the triple audit checks
``h(x) = sum_y G_D(x, y) c(y)`` on the centre's column of
``green.green_solve``, and the solve's ``laplacian``, which reads
``D.neighbor_index`` and no exit block.  Every LU solve is ``kernel.killed_solve``, certified
by ``max |u - P u - rhs| < kernel.RESIDUAL_TOL``; on a ball it reuses the
memoized factor and one-step matrix and assembles no matrix.
Balayage sweeps a nonnegative harmonic h on a ball B onto the inner
boundary of a subset A (interior indices of B): the sweep is one Dirichlet
solve on the complement of A, cut from B's arrays (``FiniteDomain.restrict``),
and the reconstruction ``G_B f`` of h on A is one solve with the ball's factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exit_time import exit_walks
from .green import green_solve
from .kernel import RESIDUAL_TOL, SolverError, exit_coupling, killed_matrix, killed_solve
from .lattice import FiniteDomain, _integer_array, make_ball, radii
from .report import AuditReport
from .rng import philox

_MC_STREAM = 0xD187  # stream tag for Dirichlet Monte Carlo draws
_BOUNDARY_STREAM = 0x4A12  # stream tag for random boundary data
_BALAYAGE_STREAM = 0xBA1A  # stream tag for balayage instances, one substream per radius
_MC_STEP_CAP = 1 << 22  # safety cap; exit is a.s. finite and far faster
ITERATE_TOL = 1e-13  # the fixed-point iteration stops once a sweep moves no value more
MAX_SWEEPS = 10_000_000  # safety cap on fixed-point sweeps; a contraction settles far sooner
NONNEGATIVE_TOL = 1e-12  # h and the charge may dip this far below zero (round-off)
MC_SAMPLES = 100_000  # walkers of the Dirichlet Monte Carlo route
Z_CAP = 4.0  # the Dirichlet Monte Carlo gate, in standard errors
INSTANCES = 100  # balayage instances per radius


class BalayageError(RuntimeError):
    """The sweep's charge leaked off the inner boundary or went negative."""


def laplacian(D: FiniteDomain, h: np.ndarray) -> np.ndarray:
    """Neighbour average minus centre, ``(1/2d) sum_{y~x} h(y) - h(x)``, over ``D``.

    ``h`` must be a field over ``D``'s closure index; returns the vector over
    the interior index.  Raises ``ValueError`` for any other length (an interior-only array).
    """
    if len(h) != len(D) + len(D.outer_coords):
        raise ValueError("h must be a field over D's closure index")
    return h[D.neighbor_index].sum(axis=1) / (2.0 * D.dimension) - h[: len(D)]


def _boundary_data(D: FiniteDomain, phi) -> np.ndarray:
    """Boundary data as a float array over ``D.outer_coords``, a vector or one column per datum (``ValueError`` otherwise)."""
    vals = np.asarray(phi, dtype=float)
    if vals.ndim not in (1, 2) or len(vals) != len(D.outer_coords):
        raise ValueError("boundary data must align with D.outer_coords")
    return vals


def dirichlet_solve(D: FiniteDomain, phi) -> np.ndarray:
    """Solve the boundary-value problem: harmonic inside, ``phi`` on ∂D.

    Sparse-LU path, ``kernel.killed_solve`` with the coupling ``P(., ∂D) phi``
    as right-hand side (a ball's factor is memoized); the killed one-step
    matrix is strictly substochastic on the inner boundary, so the system is
    nonsingular.  The field carries the boundary data exactly.  Data of
    shape (|∂D|, k) are k problems in one solve, one column each.
    """
    bdata = _boundary_data(D, phi)
    return np.concatenate([killed_solve(D, exit_coupling(D, bdata)), bdata])


def dirichlet_iterate(D: FiniteDomain, phi) -> np.ndarray:
    """Fixed-point path: repeat neighbor averaging with the boundary clamped.

    Stops when one full sweep moves no value by more than ``ITERATE_TOL``;
    the iteration is a strict contraction on finite domains, so this
    terminates (``SolverError`` past ``MAX_SWEEPS`` sweeps).
    """
    bdata = _boundary_data(D, phi)
    coupling = exit_coupling(D, bdata)
    P = killed_matrix(D)
    interior = np.full(coupling.shape, bdata.mean(axis=0))
    for _ in range(MAX_SWEEPS):
        nxt = P @ interior + coupling
        delta = float(np.abs(nxt - interior).max())
        interior = nxt
        if delta <= ITERATE_TOL:
            break
    else:
        raise SolverError("fixed-point iteration failed to settle")
    return np.concatenate([interior, bdata])


def dirichlet_mc(D: FiniteDomain, phi, x, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo path: the mean of ``phi`` at the exit point of walks from x, and its standard error.

    The walkers are reduced to ``hits``, the exact integer count of exits at
    each point of ``D.outer_coords``; the mean and the sample SE are read
    off ``hits @ phi`` and ``hits @ phi**2``.  Walkers that outlast
    ``_MC_STEP_CAP`` steps are missing from ``hits`` and raise
    :class:`SolverError`.
    """
    bdata = _boundary_data(D, phi)
    if bdata.ndim != 1:
        raise ValueError("the Monte Carlo route takes one boundary vector")
    hits = np.zeros(len(bdata), dtype=np.int64)
    for _, exits in exit_walks(D, x, samples, seed, _MC_STREAM, _MC_STEP_CAP):
        hits += np.bincount(exits, minlength=len(bdata))
    if hits.sum() < samples:
        raise SolverError("Monte Carlo step cap exceeded before exit")
    mean = float(hits @ bdata) / samples
    if samples > 1:
        var = max(float(hits @ (bdata * bdata)) / samples - mean * mean, 0.0) * samples / (samples - 1)
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return mean, se


def harmonic_measure_matrix(D: FiniteDomain, boundary: Sequence[int] | np.ndarray) -> np.ndarray:
    """Harmonic measure of D at the outer-boundary indices ``boundary``: shape (interior, len(boundary)).

    Column k is each start's chance to exit at ``D.outer_coords[boundary[k]]``,
    ``H_D(x, z) = sum_y G_D(x, y) P(y, z)``: one certified solve of the exit
    block's columns; over every index, rows sum to one.  Bad index sets
    raise as in ``FiniteDomain.interior_indices`` (0 to |∂D| - 1 here).
    """
    boundary = _integer_array(boundary, "boundary indices")
    if boundary.min() < 0 or boundary.max() >= len(D.outer_coords):
        raise ValueError(f"boundary indices run from 0 to {len(D.outer_coords) - 1}")
    columns = np.zeros((len(D.outer_coords), len(boundary)))
    columns[boundary, np.arange(len(boundary))] = 1.0
    return killed_solve(D, exit_coupling(D, columns))


def random_harmonic(D: FiniteDomain, seed: int | Sequence[int]) -> np.ndarray:
    """A harmonic function from seeded uniform [0,1] boundary data; a list of seeds is one column each, one solve."""
    seeds = np.atleast_1d(seed).tolist()
    data = np.column_stack([philox(s, stream=_BOUNDARY_STREAM).uniform(0.0, 1.0, len(D.outer_coords)) for s in seeds])
    return dirichlet_solve(D, data[:, 0] if np.ndim(seed) == 0 else data)


@dataclass(frozen=True)
class BalayageResult:
    """A nonnegative charge on the inner boundary of A that rebuilds h."""

    charge: np.ndarray  # f over the ball's interior index
    sweep: np.ndarray  # h_A over the ball closure
    reconstruction: np.ndarray  # G_B f over the ball's interior index
    max_reconstruction_rel_error: float


def balayage(B: FiniteDomain, A: Sequence[int] | np.ndarray, h: np.ndarray) -> BalayageResult:
    """Sweep a nonnegative harmonic h, a field over the ball B, onto the inner boundary of A.

    ``A`` holds interior indices of B.  The sweep ``h_A`` agrees with h on A,
    vanishes on the outer boundary of B, and is harmonic in between (one
    Dirichlet solve on B minus A, a domain ``B.restrict`` cuts from B's
    arrays, with one ``P`` assembly).  Its negative
    Laplacian is the charge f: nonnegative, and supported on the inner
    boundary of A after structural-noise verification (``BalayageError`` otherwise).  The
    reconstruction ``G_B f`` is one ``kernel.killed_solve`` with the ball's
    memoized factor; its worst relative error against h on A is reported,
    and ``balayage_batch_audit`` gates it.
    """
    in_a = np.bincount(B.interior_indices(A), minlength=len(B)) > 0
    a_idx, complement = np.flatnonzero(in_a), np.flatnonzero(~in_a)
    if not complement.size:
        raise ValueError("A must be a strict subset of the ball")
    # Validate the input: over the closure, nonnegative there, harmonic inside.
    bad = np.flatnonzero(np.abs(laplacian(B, h)) > RESIDUAL_TOL)
    if h.min() < -NONNEGATIVE_TOL:
        raise ValueError("h must be nonnegative on the ball closure")
    if bad.size:
        raise ValueError(f"h is not harmonic at {B.interior[bad[0]]}")

    # The sweep: h on A, the Dirichlet solution on B minus A, 0 outside B.
    target = h[a_idx]
    sweep_vals = np.zeros(len(B) + len(B.outer_coords))
    sweep_vals[a_idx] = target
    Dc = B.restrict(complement)
    outer = B.box[tuple((Dc.outer_coords - B.corner).T)]  # each step out of Dc lands in A or outside B
    sweep_vals[complement] = dirichlet_solve(Dc, sweep_vals[outer])[: len(Dc)]

    # Charge: identity minus killed one-step, applied to the sweep on B.
    inside = sweep_vals[: len(B)]
    P = killed_matrix(B)
    f = inside - P @ inside
    off_support = ~B.inner_mask(a_idx)
    noise = float(np.abs(f[off_support]).max())
    if noise > RESIDUAL_TOL:
        raise BalayageError(
            f"charge leaks {noise:.3e} off the inner boundary of A"
        )
    f = np.where(off_support, 0.0, f)
    if f.min() < -NONNEGATIVE_TOL:
        raise BalayageError(f"charge has a negative value {f.min():.3e}")

    # Reconstruction: G_B f by one certified solve with the ball's factor, measured on A.
    u = killed_solve(B, f)
    rel = np.abs(u[a_idx] - target) / np.maximum(np.abs(target), 1e-300)
    return BalayageResult(charge=f, sweep=sweep_vals, reconstruction=u, max_reconstruction_rel_error=float(rel.max()))


def dirichlet_triple_audit(d: int, R: int, seed: int, agree_tol: float) -> AuditReport:
    """Three independent Dirichlet routes must agree on seeded boundary data.

    The sparse linear solve, the clamped fixed-point iteration, and the
    Monte Carlo exit average are computed for the same uniform boundary
    data; solve vs iterate must match within ``agree_tol`` everywhere, the
    MC value of ``MC_SAMPLES`` walks from the centre within ``Z_CAP``
    standard errors, and the solve value at the centre must equal the
    harmonic-measure average of the data, read off the centre's Green column
    as ``sum_y G_D(0, y) c(y)``, within ``RESIDUAL_TOL``.  All three read the
    exit block; the ``harmonic`` row does not: the solve's Laplacian, read
    off ``D.neighbor_index``, must stay within ``RESIDUAL_TOL`` everywhere.
    """
    D = make_ball((0,) * d, R)
    solved = random_harmonic(D, seed)
    phi = solved[len(D) :]
    iterated = dirichlet_iterate(D, phi)
    center = (0,) * d
    mc, mc_se = dirichlet_mc(D, phi, center, MC_SAMPLES, seed)
    coupling = exit_coupling(D, phi)
    green_center = green_solve(D, [D.index_of(center)])[:, 0]  # G_D(., 0) = G_D(0, .): the walk is symmetric
    h0 = float(solved[D.index_of(center)])
    gap = float(np.abs(solved - iterated).max())
    z = abs(mc - h0) / max(mc_se, 1e-12)
    measure_gap = abs(float(green_center @ coupling) - h0)
    lap = float(np.abs(laplacian(D, solved)).max())
    rows = [
        {"check": "solve_vs_iterate", "value": gap, "limit": agree_tol},
        {"check": "mc_z_score", "value": z, "limit": Z_CAP},
        {"check": "measure_average", "value": measure_gap, "limit": RESIDUAL_TOL},
        {"check": "harmonic", "value": lap, "limit": RESIDUAL_TOL},
    ]
    passed = gap <= agree_tol and z <= Z_CAP and measure_gap <= RESIDUAL_TOL and lap <= RESIDUAL_TOL
    return AuditReport(
        audit_id=f"dirichlet.triple.d{d}",
        grid={"d": d, "R": R, "samples": MC_SAMPLES, "seed": seed},
        constants={
            "solve_vs_iterate": gap,
            "mc_z": z,
            "mc_se": mc_se,
            "measure_average_gap": measure_gap,
            "max_laplacian": lap,
        },
        worst=max(rows, key=lambda r: r["value"] / r["limit"]),
        passed=passed,
        notes=["identical seed replays the Monte Carlo estimate bit-exactly"],
        rows=rows,
    )


def _random_subset(B: FiniteDomain, rng) -> np.ndarray:
    """A random nonempty strict subset of the ball, as interior indices: a clipped sub-ball."""
    center = B.coords[int(rng.integers(len(B)))]
    return B.within(int(rng.integers(0, B.radius)), center)


def balayage_batch_audit(
    d: int, r_values: Sequence[int], seed: int, recon_tol: float
) -> AuditReport:
    """Run many seeded balayage instances and report the worst witnesses.

    Per instance (``INSTANCES`` per radius): a random harmonic function
    (uniform boundary data) is swept onto a random sub-ball; the charge must
    be nonnegative within ``NONNEGATIVE_TOL``, supported on the subset's
    inner boundary structurally, and must reconstruct the function on the
    subset within ``recon_tol`` relative.  A radius's ``(h_seed, subset)`` pairs are drawn first,
    then its harmonics in one block solve (bit for bit the one-seed solves).
    """
    r_values = radii(r_values)
    rows = []
    worst_recon = -1.0
    worst = None
    min_charge = math.inf
    failures = 0
    for R in r_values:
        B = make_ball((0,) * d, R)
        rng = philox(seed, stream=(_BALAYAGE_STREAM << 32) | R)
        draws = [(int(rng.integers(1 << 31)), _random_subset(B, rng)) for _ in range(INSTANCES)]
        harmonics = random_harmonic(B, [h_seed for h_seed, _ in draws])
        for i, (h_seed, subset) in enumerate(draws):
            try:
                result = balayage(B, subset, harmonics[:, i])
            except (BalayageError, ValueError) as exc:
                failures += 1
                rows.append({"R": R, "instance": i, "h_seed": h_seed, "error": str(exc)})
                continue
            err = result.max_reconstruction_rel_error
            mc = float(result.charge.min())
            min_charge = min(min_charge, mc)
            if err > worst_recon:
                worst_recon = err
                worst = {"R": R, "instance": i, "h_seed": h_seed, "rel_error": err}
            rows.append({"R": R, "instance": i, "h_seed": h_seed, "subset_size": len(subset),
                         "rel_error": err, "min_charge": mc})
    passed = failures == 0 and worst_recon <= recon_tol and min_charge >= -NONNEGATIVE_TOL
    return AuditReport(
        audit_id=f"balayage.batch.d{d}",
        grid={"d": d, "radii": r_values, "instances": INSTANCES, "seed": seed},
        constants={
            "max_reconstruction_rel_error": worst_recon,
            "min_charge_value": min_charge,
            "failures": failures,
        },
        worst=worst,
        passed=passed,
        notes=["support and nonnegativity are verified inside each instance"],
        rows=rows,
    )
