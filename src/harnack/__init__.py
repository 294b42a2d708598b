"""Exact and audited potential theory for the simple random walk on Z^d.

The package computes n-step transition kernels (free and killed), exit-time
tails, Green tables, discrete boundary-value solutions, balayage charges and
Harnack constants on lattice balls — each by at least two independent routes
— and ships the audits that cross-check those routes against each other and
against provable envelopes.

Modules
-------
lattice
    Points (one check of integer input), the graph metric, one finite-domain
    type (balls and arbitrary point sets) with a neighbour-index array, chains.
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

__version__ = "0.1.0"

_MODULES = ("lattice", "kernel", "exit_time", "green", "bounds", "harmonic", "ehi", "cache", "report")
_NAMES = {  # the quickstart's names and their modules
    "make_ball": "lattice",
    "green_solve": "green",
    "n_step": "kernel",
    "harnack_constant_exact": "ehi",
}

__all__ = ["__version__", *_MODULES, *_NAMES]


def __getattr__(name: str):
    # Names resolve on first access, so ``import harnack`` loads no SciPy.
    if name in _MODULES:
        return importlib.import_module("." + name, __name__)
    if name in _NAMES:
        return getattr(importlib.import_module("." + _NAMES[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
