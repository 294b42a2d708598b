"""Command-line audit runner.

``harnack <subcommand>`` assembles the module audits into a single JSON (or
CSV) report.  Subcommands select which family of audits to run::

    kernel     exact n-step kernel guarantees (mass, parity, projection law)
    bounds     Gaussian envelope fits, LCLT error scan, chain certificates
    exit       exit-time tail bounds and Monte Carlo cross-checks
    green      Green-table oracle equivalence and interior comparisons
    dirichlet  boundary-value solver triple agreement
    balayage   seeded sweeping-out batches
    ehi        Harnack constants: closed form, small radii, scale stability
    all        everything above, in that order
    cache      binary kernel cache maintenance (list / clear / verify)

Every audit flag, and ``cache``'s ``--cache-dir``, can also be supplied
through an environment variable with the ``HARNACK_`` prefix (for an audit,
``HARNACK_SEED=7`` is ``--seed 7``); explicit flags win over the environment,
which wins over built-in defaults.  ``cache verify`` reads its ``--fraction``
and ``--seed`` from the command line only.

Exit status: 0 when every selected audit passes, 1 when any audit fails
(failing audit ids are printed to stderr) or the report or cache cannot be
written, read or removed (one ``error: cannot write|read|remove`` line), 2
for usage errors.  Reports are written atomically, and rerunning with the
same config and seed reproduces the report body byte-for-byte (wall-clock
data lives in a separate ``timings`` section).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Sequence, get_type_hints

from .cache import MAX_DIMENSION, KernelCache
from .lattice import make_ball
from .report import AuditReport, ReportEnvelope, write_json_atomic

__all__ = ["RunConfig", "UsageError", "run", "main", "entrypoint"]

ENV_PREFIX = "HARNACK_"
AUDIT_COMMANDS = {  # name -> help, in report order
    "kernel": "exact n-step kernel audits (mass, parity, projection law)",
    "bounds": "Gaussian envelope fits, LCLT error scan, chain certificates",
    "exit": "exit-time tail bounds and Monte Carlo cross-checks",
    "green": "Green-table oracle equivalence and interior comparisons",
    "dirichlet": "boundary-value solver triple agreement",
    "balayage": "seeded sweeping-out batches",
    "ehi": "Harnack constant audits",
    "all": "every audit family, in order",
}
EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Invalid configuration; reported on stderr with exit status 2."""


class FileError(RuntimeError):
    """A report or cache file could not be written, read or removed; exit status 1."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one audit run (flags + environment)."""

    command: str
    dim: int = 2
    r_min: int = 4
    r_max: int = 16
    n_max: int = 64
    tol: float = 1e-8
    seed: int = 0
    format: str = "json"
    cache_dir: str | None = None
    threads: int = 1
    out: str | None = None

    def validate(self) -> None:
        if self.command not in AUDIT_COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.dim < 1:
            raise UsageError("--dim must be a positive integer")
        if self.dim > MAX_DIMENSION:
            raise UsageError(f"--dim above {MAX_DIMENSION} is not supported by the audit grids")
        if self.r_min < 1:
            raise UsageError("--r-min must be >= 1")
        if self.r_max < self.r_min:
            raise UsageError("--r-max must be >= --r-min")
        if self.n_max < 3:
            raise UsageError("--n-max must be >= 3")
        if not 0.0 < self.tol < math.inf:
            raise UsageError("--tol must be a positive finite number")
        if not 0 <= self.seed < 1 << 64:
            raise UsageError("--seed must be an integer in [0, 2^64)")
        if self.format not in ("json", "csv"):
            raise UsageError("--format must be json or csv")
        if self.threads < 1:
            raise UsageError("--threads must be >= 1")

    def radius_grid(self) -> list[int]:
        """Doubling radii from r_min up to and including r_max."""
        radii = []
        radius = self.r_min
        while radius < self.r_max:
            radii.append(radius)
            radius *= 2
        radii.append(self.r_max)
        return sorted(set(radii))

    def echo(self) -> dict:
        from . import __version__

        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["version"] = __version__
        return data

    @property
    def default_out(self) -> str:
        return "harnack_report.json" if self.format == "json" else "harnack_report"


_ENV_TYPES = {name: kind for name, kind in get_type_hints(RunConfig).items() if name != "command"}
_NUMBERS = {int: "an integer", float: "a number"}  # the other fields are strings


def _resolve(name: str, flag_value, default):
    """Flag beats environment beats default."""
    if flag_value is not None:
        return flag_value
    env_name = ENV_PREFIX + name.upper()
    raw = os.environ.get(env_name)
    if raw is None or raw == "":
        return default
    kind = _ENV_TYPES[name]
    if kind not in _NUMBERS:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise UsageError(f"environment variable {env_name} must be {_NUMBERS[kind]}") from None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    defaults = RunConfig(command=args.command)
    values = {
        name: _resolve(name, getattr(args, name), getattr(defaults, name))
        for name in _ENV_TYPES
    }
    cfg = RunConfig(command=args.command, **values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Audit tasks: one table of every family's audits, in report order.
# ---------------------------------------------------------------------------

AuditTask = Callable[[], AuditReport]


def _tasks_for(cfg: RunConfig) -> list[AuditTask]:
    """The selected families' audits, their grids worked out once from ``cfg``.

    The audit modules are imported here, so ``cache list`` and ``cache clear`` load no SciPy.
    """
    from . import bounds, ehi, exit_time, green, harmonic, kernel

    d, seed, radii, r0 = cfg.dim, cfg.seed, cfg.radius_grid(), cfg.r_min

    def in_range(grid: Sequence[int]) -> list[int]:
        return [R for R in grid if cfg.r_min <= R <= cfg.r_max]

    n_cap = min(cfg.n_max, 64 if d >= 3 else bounds.DP_WINDOW)  # dense-DP orthants {0..n}^d grow cubically in 3-d
    lo = 16 if n_cap >= 32 else max(2, n_cap // 2)
    # Dense-table and killed-kernel sweeps cost O(R^2) DP steps over O(R^d)
    # points per start; keep their grids at moderate radii.
    cap = 16 if d <= 2 else 8
    small = [R for R in radii if R <= cap] or [cap]
    # The pole-ratio constant degenerates below R = 4 (the sample region is
    # a single point), so only gate its stability on informative radii.
    comp = [R for R in radii if 4 <= R <= cap]
    ugi = in_range({2: (8, 16, 32), 3: (6, 8, 12)}.get(d, ())) or [R for R in radii if R >= 4] or [4]
    # Scale stability is a statement about moderate radii; tiny balls are
    # still converging, so only gate when the grid reaches R >= 8.
    stability = in_range((8, 16, 24, 32)) if d == 2 else []
    oscillation = {
        1: radii,
        2: stability or [R for R in radii if R <= 32] or [8],
        3: in_range((4, 6, 8, 10, 12)) or [6],  # exact constants stay affordable only at small radii
    }[d]
    chain = [R for R in (40, 48, 64) if R <= cfg.r_max] if d == 2 else []
    small_r = {  # exact constants against the combinatorial cap, which holds for R <= 32
        1: range(1, min(32, cfg.r_max) + 1),
        2: (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32),
        3: (1, 2, 3, 4, 6, 8, 10, 12),
    }[d]
    table: list[tuple[str, bool, AuditTask]] = [
        ("kernel", True, lambda: kernel.exactness_audit(d, n_cap)),
        ("kernel", d == 2, lambda: kernel.projection_audit(min(cfg.n_max, 64))),
        ("bounds", True, lambda: bounds.near_diagonal_audit(d, n_cap)),
        ("bounds", True, lambda: bounds.gaussian_lower_audit(d, n_cap)),
        ("bounds", True, lambda: bounds.gaussian_upper_audit(d, n_cap)),
        ("bounds", True, lambda: bounds.lclt_error_scan(d, (lo, n_cap))),
        # long-range certificates need the closed-form kernel (d <= 2)
        ("bounds", d <= 2, lambda: bounds.chain_certificate_batch(d, seed)),
        ("exit", True, lambda: exit_time.chernoff_audit(d, radii)),
        ("exit", True, lambda: exit_time.crude_tail_audit(d, r0)),
        ("exit", True, lambda: exit_time.mc_consistency_audit(
            d, r0, n_max=min(cfg.n_max, 4 * r0 * r0), seed=seed)),
        ("green", True, lambda: green.equivalence_audit(d, small, rel_tol=cfg.tol)),
        ("green", True, lambda: green.killed_lower_audit(d, small)),
        ("green", bool(comp), lambda: green.comparability_audit(d, comp)),
        ("green", d >= 2, lambda: green.ugi_audit(d, ugi)),
        ("dirichlet", True, lambda: harmonic.dirichlet_triple_audit(
            d, min(cfg.r_max, 16), seed=seed, agree_tol=cfg.tol)),
        ("balayage", True, lambda: harmonic.balayage_batch_audit(
            d, [R for R in radii if R <= 16] or [r0], seed=seed, recon_tol=cfg.tol)),
        ("ehi", d == 1, lambda: ehi.d1_closed_form_audit(cfg.r_max)),
        ("ehi", True, lambda: ehi.small_r_bound_audit(d, small_r)),
        ("ehi", bool(stability), lambda: ehi.stability_audit(2, stability)),
        ("ehi", True, lambda: ehi.oscillation_audit(d, oscillation, seed=seed)),
        ("ehi", bool(chain), lambda: ehi.chained_harnack_audit(2, chain)),
    ]
    return [task for family, wanted, task in table if wanted and cfg.command in (family, "all")]


def _populate_cache(cfg: RunConfig) -> int:
    """Write the run's kernels/tables into the binary cache (free fields as orthants); returns count."""
    from . import green, kernel
    cache = KernelCache(cfg.cache_dir)
    written = 0
    try:
        if cfg.command in ("kernel", "all"):
            for n, field in kernel.iter_free_fields(cfg.dim, min(cfg.n_max, 64)):
                cache.put_free(cfg.dim, n, field)
                written += 1
        if cfg.command in ("green", "all"):
            for radius in cfg.radius_grid():
                cache.put_green((0,) * cfg.dim, radius, green.green_solve(make_ball((0,) * cfg.dim, radius)))
                written += 1
    except OSError as exc:
        raise FileError(f"cannot write {cfg.cache_dir}: {exc.strerror or exc}") from None
    return written


def run(cfg: RunConfig) -> ReportEnvelope:
    """Run the selected audits and assemble the report envelope.

    Audits may run on a thread pool (``threads``); report order, content and
    verdicts depend only on (config, seed), never on the pool size.
    """
    tasks = _tasks_for(cfg)

    def timed(task: AuditTask) -> tuple[AuditReport, float]:
        start = time.perf_counter()
        report = task()
        return report, time.perf_counter() - start

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(timed, tasks))
    else:
        outcomes = [timed(task) for task in tasks]
    audits = [report for report, _ in outcomes]
    timings = {report.audit_id: seconds for report, seconds in outcomes}
    if cfg.cache_dir:
        start = time.perf_counter()
        _populate_cache(cfg)
        timings["cache_populate"] = time.perf_counter() - start
    return ReportEnvelope(config=cfg.echo(), audits=audits, timings=timings)


def _write_report(cfg: RunConfig, envelope: ReportEnvelope) -> str:
    out = cfg.out or cfg.default_out
    try:
        if cfg.format == "json":
            write_json_atomic(out, envelope.to_json_dict())
        else:
            os.makedirs(out, exist_ok=True)
            write_json_atomic(os.path.join(out, "summary.json"), envelope.to_json_dict())
            for audit in envelope.audits:
                audit.write_rows_csv(os.path.join(out, audit.audit_id + ".csv"))
    except OSError as exc:
        raise FileError(f"cannot write {out}: {exc.strerror or exc}") from None
    return out


def _print_summary(envelope: ReportEnvelope, out_path: str) -> None:
    for audit in envelope.audits:
        print(f"{'PASS' if audit.passed else 'FAIL'}  {audit.audit_id}")
    verdict = "all audits passed" if envelope.passed else "AUDIT FAILURE"
    print(f"{verdict}; report written to {out_path}")


def _run_audits(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    envelope = run(cfg)
    out_path = _write_report(cfg, envelope)
    _print_summary(envelope, out_path)
    failing = [a.audit_id for a in envelope.audits if not a.passed]
    if failing:
        print("failing audits: " + ", ".join(failing), file=sys.stderr)
        return EXIT_AUDIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Cache maintenance subcommand.
# ---------------------------------------------------------------------------


def _cache_command(args: argparse.Namespace) -> int:
    cache_dir = _resolve("cache_dir", args.cache_dir, None)
    if not cache_dir:
        raise UsageError("cache commands need --cache-dir or HARNACK_CACHE_DIR")
    cache = KernelCache(cache_dir)
    try:
        if args.action == "list":
            message = json.dumps(cache.list_entries(), indent=2)
        elif args.action == "clear":
            message = f"removed {cache.clear()} cache file(s)"
        else:
            summary = cache.verify(fraction=args.fraction, seed=args.seed)
            message = f"checked {summary['checked']} of {summary['total']} cache file(s): " + (
                "ok" if summary["ok"] else "MISMATCH"
            )
    except OSError as exc:
        verb = "remove" if args.action == "clear" else "read"
        raise FileError(f"cannot {verb} {exc.filename}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a bad verify option, or a listed entry that does not decode
        raise (UsageError if args.action == "verify" else FileError)(str(exc)) from None
    print(message)
    if args.action == "verify" and not summary["ok"]:
        for name in summary["mismatches"]:
            print(f"corrupt cache entry: {name}", file=sys.stderr)
        return EXIT_AUDIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_audit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=None, help="lattice dimension (1-3)")
    parser.add_argument("--r-min", type=int, default=None, help="smallest ball radius")
    parser.add_argument("--r-max", type=int, default=None, help="largest ball radius")
    parser.add_argument("--n-max", type=int, default=None, help="largest step count")
    parser.add_argument("--tol", type=float, default=None, help="relative tolerance for oracle agreement")
    parser.add_argument("--seed", type=int, default=None, help="root seed for all random draws")
    parser.add_argument("--format", choices=("json", "csv"), default=None, help="report format")
    parser.add_argument("--cache-dir", default=None, help="write the binary kernel cache here; audits never read it")
    parser.add_argument("--threads", type=int, default=None, help="thread pool width (results are identical for any value)")
    parser.add_argument("--out", default=None, help="report path (json) or directory (csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harnack",
        description="Audit runner for random-walk kernels, Green tables, "
        "boundary-value solvers and Harnack constants on the integer lattice.",
        epilog="Flags may be set via HARNACK_* environment variables ("
        + ", ".join(ENV_PREFIX + name.upper() for name in _ENV_TYPES)
        + "); explicit flags take precedence.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_line in AUDIT_COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_line)
        _add_audit_flags(sub)
        sub.set_defaults(handler=_run_audits)
    cache_parser = subparsers.add_parser("cache", help="binary kernel cache maintenance")
    actions = cache_parser.add_subparsers(dest="action", required=True)
    for action in ("list", "clear", "verify"):
        sub = actions.add_parser(action)
        sub.add_argument("--cache-dir", default=None, help="cache directory")
        if action == "verify":
            sub.add_argument("--fraction", type=float, default=0.01, help="sampled fraction of entries to re-derive")
            sub.add_argument("--seed", type=int, default=0, help="sampling seed")
        sub.set_defaults(handler=_cache_command)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
