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

import importlib

# Public names resolve on first access, so ``import harnack`` loads no SciPy.
_SOURCES = {
    "bounds": "ChainCertificate GaussianForm InfeasibleCertificateError chain_certificate "
    "gaussian_lower_audit gaussian_upper_audit lclt_error_scan near_diagonal_audit",
    "ehi": "HarnackRecord d1_harnack_constant harnack_constant_exact",
    "exit_time": "ExitCdf McEstimate chernoff_bound exact_exit_cdf mc_exit_sample",
    "green": "GreenTable SolverError green_solve green_table_series",
    "harmonic": "BalayageError BalayageResult LatticeField balayage dirichlet_iterate "
    "dirichlet_mc dirichlet_solve harmonic_measure laplacian",
    "kernel": "free_field n_step survival",
    "lattice": "BallChain FiniteDomain build_ball_chain graph_distance make_ball",
    "report": "AuditReport ReportEnvelope SCHEMA_VERSION",
    "cache": "",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

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


def __getattr__(name: str):
    if name in _SOURCES:
        return importlib.import_module("." + name, __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
