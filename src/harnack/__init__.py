"""Exact and audited potential theory for the simple random walk on Z^d.

The package computes n-step transition kernels (free and killed), exit-time
tails, Green tables, discrete boundary-value solutions, balayage charges and
Harnack constants on lattice balls — each by at least two independent routes
— and ships the audits that cross-check those routes against each other and
against provable envelopes.

Modules
-------
lattice
    Points, the graph metric, one finite-domain type (balls and arbitrary
    point sets) with a neighbour-index array, chains.
kernel
    Exact n-step kernels by dense dynamic programming and closed forms.
exit_time
    Exit CDFs, sub-Gaussian tail bounds, seeded Monte Carlo estimates.
green
    Green tables by series and by linear solve, interior comparisons.
bounds
    Gaussian envelope fits, local-CLT error scans, chain certificates.
harmonic
    Dirichlet solvers (solve / iterate / MC), harmonic measure, balayage.
ehi
    Exact Harnack constants, scale stability, oscillation decay.
cache
    Binary table cache (magic, shape header, raw binary64 payload) with
    bit-exact re-derivation checks.
report
    Audit report containers and atomic JSON/CSV writers.
cli
    The ``harnack`` command-line audit runner.
"""

from . import bounds, cache, ehi, exit_time, green, harmonic, kernel, lattice, report
from .bounds import (
    ChainCertificate,
    GaussianForm,
    InfeasibleCertificateError,
    chain_certificate,
    gaussian_lower_audit,
    gaussian_upper_audit,
    lclt_error_scan,
    near_diagonal_audit,
)
from .ehi import HarnackRecord, d1_harnack_constant, harnack_constant_exact
from .exit_time import ExitCdf, McEstimate, chernoff_bound, exact_exit_cdf, mc_exit_sample
from .green import GreenTable, SolverError, green_solve, green_table_series
from .harmonic import (
    BalayageError,
    BalayageResult,
    LatticeField,
    balayage,
    dirichlet_iterate,
    dirichlet_mc,
    dirichlet_solve,
    harmonic_measure,
    laplacian,
)
from .kernel import free_field, n_step, survival
from .lattice import BallChain, FiniteDomain, build_ball_chain, graph_distance, make_ball
from .report import AuditReport, ReportEnvelope, SCHEMA_VERSION

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SCHEMA_VERSION",
    # domains
    "BallChain",
    "FiniteDomain",
    "LatticeField",
    "make_ball",
    "build_ball_chain",
    "graph_distance",
    # kernels
    "free_field",
    "n_step",
    "survival",
    # exit times
    "ExitCdf",
    "McEstimate",
    "exact_exit_cdf",
    "chernoff_bound",
    "mc_exit_sample",
    # green
    "GreenTable",
    "SolverError",
    "green_solve",
    "green_table_series",
    # bounds
    "GaussianForm",
    "ChainCertificate",
    "InfeasibleCertificateError",
    "chain_certificate",
    "near_diagonal_audit",
    "gaussian_lower_audit",
    "gaussian_upper_audit",
    "lclt_error_scan",
    # harmonic
    "BalayageError",
    "BalayageResult",
    "balayage",
    "dirichlet_solve",
    "dirichlet_iterate",
    "dirichlet_mc",
    "harmonic_measure",
    "laplacian",
    # ehi
    "HarnackRecord",
    "harnack_constant_exact",
    "d1_harnack_constant",
    # reports
    "AuditReport",
    "ReportEnvelope",
    # modules
    "lattice",
    "kernel",
    "exit_time",
    "green",
    "bounds",
    "harmonic",
    "ehi",
    "cache",
    "report",
]
