"""Benchmark of the ``harnack`` CLI, run from the checkout's ``src/`` tree.

    python3 perfbench/run.py --workload all-d2 --seed 0 --seconds 30 --trace 0

A workload is a fixed list of ``harnack`` command lines, run one after the
other, each on a fresh interpreter (a closed loop with one client), with
``--threads 1`` and one BLAS thread.  One pass over the list is a round.
An untraced run (``--trace 0``) repeats whole rounds, at least two, until
``--seconds`` have passed and prints the median end-to-end metrics; a traced run
(``--trace 1``) makes one untraced and one traced round and prints the
per-layer metrics.  After every round the program's outputs are checked
against computations made here (see ``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
(every round, every failed check) go to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer  # perfbench/, the script's directory, is on sys.path

# One BLAS thread, for the program and for the checks made here alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAUNCH = HERE / "launch.py"
RUN_BUDGET_S = 170.0  # the whole run, rounds and checks, must end within this
SETUP_SAMPLES = 3  # start-up samples per untraced run: rounds plus probes
MIN_ROUNDS = 2  # an untraced run compares the report bodies of at least two rounds


@functools.cache
def benchmark() -> dict:
    """BENCHMARK.json, whose metric names and units the results use.

    Every audit the tracer wraps must have its rss_mb figure listed there,
    and nothing else.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    audit_rss = {f"{module}.{fn}.rss_mb" for module, fns in tracer.AUDITS.items() for fn in fns}
    if audit_rss != {m["name"] for m in spec["per_layer"] if m["name"].endswith(".rss_mb")}:
        raise SystemExit("BENCHMARK.json lists other rss_mb figures than the audits tracer.py wraps")
    return spec


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    extra: tuple[str, ...] = ()
    csv_cache: bool = False  # CSV report, a fresh cache dir, then cache list + verify
    small_r: int | None = None  # radius of the worst ehi.small_r constant to re-solve
    # Traced functions that do not run on this workload; every other listed
    # calls/total_s figure must be recorded by the traced round.
    not_run: tuple[str, ...] = ()

    def work_dir(self) -> Path:
        # Fixed, relative paths: they are echoed in the report body, which
        # must not change between rounds or checkouts.
        return Path("perfbench", "out", "work", self.name)

    def commands(self, seed: int) -> list[list[str]]:
        work = self.work_dir()
        common = ["--dim", str(self.dim), *self.extra, "--seed", str(seed), "--threads", "1"]
        if not self.csv_cache:
            return [["all", *common, "--out", str(work / "report.json")]]
        cache = str(work / "cache")
        return [
            ["all", *common, "--format", "csv", "--cache-dir", cache, "--out", str(work / "report")],
            ["cache", "list", "--cache-dir", cache],
            ["cache", "verify", "--fraction", "1.0", "--seed", str(seed), "--cache-dir", cache],
        ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# all-d3-r8 is not in BENCHMARK.json: one round per run is too unsteady on a
# shared 2-core host, and all its layers also run on all-d2.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("all-d2", dim=2, small_r=32, not_run=("kernel.free_field.", "cache.")),
        Workload("all-d3-r8", dim=3, extra=("--r-max", "8"), small_r=12,
                 not_run=("kernel.free_field.", "bounds.chain_certificate.", "cache.")),
        Workload("all-d1-csv-cache", dim=1, csv_cache=True),
    )
}


# ---------------------------------------------------------------------------
# Processes and rounds
# ---------------------------------------------------------------------------


@dataclass
class Process:
    args: list[str]
    code: int
    start: float
    end: float
    setup_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


def _child_env() -> dict[str, str]:
    # The program sees only its command line: drop HARNACK_* fallbacks.
    return {k: v for k, v in os.environ.items() if not k.startswith("HARNACK_")}


def launch(args: list[str], mode: str, work: Path, deadline: float) -> Process:
    """Run one harnack process to its end (killed at ``deadline``)."""
    mark = work / "mark"
    mark.unlink(missing_ok=True)
    trace_file = work / "trace.json"
    flags = []
    if mode == "trace":
        flags = ["-X", "importtime"]
        mode = f"trace:{trace_file}"
    cmd = [sys.executable, *flags, str(LAUNCH), str(mark), mode, "--", *args]
    with open(work / "stdout", "w+") as out, open(work / "stderr", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    marked = float(mark.read_text()) if mark.exists() else end
    trace = None
    if mode.startswith("trace:") and trace_file.exists():
        trace = json.loads(trace_file.read_text())
        trace.update(import_times(stderr))
        trace_file.unlink()
    return Process(args, proc.returncode, start, end, marked - start, usage.ru_maxrss / 1024.0,
                   stdout, stderr, trace)


IMPORT_FIGURES = {
    "harnack": "import.harnack_s",
    "numpy": "import.numpy_s",
    "scipy": "import.scipy_s",
    "scipy.stats": "import.scipy_stats_s",
}


def import_times(stderr: str) -> dict[str, float]:
    """``import.*`` figures (cumulative seconds) from ``-X importtime`` lines.

    A package's figure sums its outermost imports: every ``scipy.stats.*``
    line that no other ``scipy.stats`` line encloses, and so on.  (Lazily
    loaded SciPy subpackages print no line of their own, only their parts.)
    """
    def within(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    figures = dict.fromkeys(IMPORT_FIGURES.values(), 0.0)
    lines = [line.split("|") for line in stderr.splitlines()
             if line.startswith("import time:") and "imported package" not in line]
    enclosing: list[tuple[int, str]] = []
    # The output is post-order; read backwards, every import follows its parent.
    for _, cumulative, label in reversed(lines):
        indent, name = len(label) - len(label.lstrip()), label.strip()
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        for package, key in IMPORT_FIGURES.items():
            if within(name, package) and not any(within(n, package) for _, n in enclosing):
                figures[key] += int(cumulative) / 1e6
        enclosing.append((indent, name))
    return figures


@dataclass
class Round:
    processes: list[Process]
    checks: list[tuple[str, str | None]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.processes[-1].end - self.processes[0].start

    @property
    def setup_s(self) -> float:
        return sum(p.setup_s for p in self.processes)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.processes)


def _fresh(work: Path, workload: Workload) -> None:
    absolute = ROOT / work
    for name in ("report.json", "report", "cache"):
        target = absolute / name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
    absolute.mkdir(parents=True, exist_ok=True)
    if workload.csv_cache:
        (absolute / "cache").mkdir()


def run_round(workload: Workload, seed: int, mode: str, deadline: float, digests: set[str]) -> Round:
    work = workload.work_dir()
    _fresh(work, workload)
    processes = []
    for args in workload.commands(seed):
        processes.append(launch(args, mode, ROOT / work, deadline))
    rnd = Round(processes)
    rnd.checks = check_round(workload, seed, rnd, digests)
    return rnd


def setup_probe(workload: Workload, seed: int, deadline: float) -> float:
    """Start-up time of the round's processes, each stopped at its first audit."""
    work = workload.work_dir()
    _fresh(work, workload)
    return sum(launch(args, "setup", ROOT / work, deadline).setup_s for args in workload.commands(seed))


# ---------------------------------------------------------------------------
# Output checks (one operation each, besides the audit verdicts)
# ---------------------------------------------------------------------------


def _attempt(check, *args) -> str | None:
    """Run one check; malformed program output fails it instead of the run."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - any crash on bad output is a failed check
        return f"check raised {exc!r}"


def check_round(workload: Workload, seed: int, rnd: Round, digests: set[str]) -> list[tuple[str, str | None]]:
    import checks

    work = ROOT / workload.work_dir()
    report_path = work / ("report/summary.json" if workload.csv_cache else "report.json")
    main = rnd.processes[0]
    if not report_path.exists():
        return [("report", f"no report; exit code {main.code}: {main.stderr[-500:]}")]
    report = json.loads(report_path.read_text())
    results = [(f"audit {a['audit_id']}", None if a["passed"] else "audit failed") for a in report["audits"]]
    if main.code != (0 if report["passed"] else 1):
        results.append(("exit code", f"harnack all exited {main.code}"))

    row_files = []
    if workload.small_r is not None:
        results.append(("ehi.small_r dense re-solve",
                         _attempt(checks.check_small_r_worst, report, workload.dim, workload.small_r)))
    if workload.csv_cache:
        rows = work / "report"
        row_files = sorted(rows.glob("*.csv"))
        results.append(("d1 C rows", _attempt(checks.check_d1_constant_rows, rows / "ehi.small_r.d1.csv")))
        results.append(("d1 closed-form rows",
                         _attempt(checks.check_d1_constant_rows, rows / "ehi.closed_form.d1.csv", "exact")))
        files = sorted((work / "cache").glob("*.zdk"))
        for path in files:
            check = checks.check_free_d1 if path.name.startswith("free-") else checks.check_green_d1
            results.append((f"cache file {path.name}", _attempt(check, path)))
        for name, proc, check in (
            ("cache list", rnd.processes[1], checks.check_cache_listing),
            ("cache verify", rnd.processes[2], checks.check_verify_output),
        ):
            failure = f"exit code {proc.code}: {proc.stderr[-300:]!r}" if proc.code else _attempt(check, proc.stdout, files)
            results.append((name, failure))

    # Every round of a run executes the same code with the same seed, so after
    # the first each body must equal the ones before it.
    digest = checks.body_digest(report_path, row_files)
    if digests:
        same = digests == {digest}
        results.append(("report body reproducible", None if same else "report body differs from an earlier execution"))
    digests.add(digest)
    return results


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _ops(rounds: list[Round]) -> tuple[int, int, list[str]]:
    ops = [op for r in rounds for op in r.checks]
    failures = [f"{name}: {msg}" for name, msg in ops if msg is not None]
    return len(ops), len(failures), failures


def missing_layers(workload: Workload, stats: dict[str, float]) -> str | None:
    """Listed calls/total_s figures that the traced round never recorded.

    A wrapper that stops firing (a function captured before the tracer was
    installed, say) would otherwise read as a plausible zero.
    """
    missing = [name for name in units("per_layer")
               if name.endswith((".calls", ".total_s")) and name not in stats
               and not name.startswith(workload.not_run)]
    if not missing:
        return None
    return (f"not recorded: {', '.join(missing)} (if {workload.name} no longer runs them, "
            "add them to its not_run)")


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    digests: set[str] = set()
    # Warm the file cache and the bytecode of a fresh checkout; not counted.
    _fresh(workload.work_dir(), workload)
    launch(workload.commands(seed)[0], "setup", ROOT / workload.work_dir(), deadline)
    if trace:
        plain = run_round(workload, seed, "run", deadline, digests)
        traced = run_round(workload, seed, "trace", deadline, digests)
        rounds = [plain, traced]
        stats: dict[str, float] = {}
        for proc in traced.processes:
            for key, value in (proc.trace or {}).items():
                stats[key] = max(stats.get(key, 0.0), value) if key.endswith("rss_mb") else stats.get(key, 0.0) + value
        stats["trace.overhead_s"] = traced.wall_s - plain.wall_s
        traced.checks.append(("per-layer trace complete", missing_layers(workload, stats)))
        metrics = {name: {"value": stats.get(name, 0.0), "unit": unit} for name, unit in units("per_layer").items()}
        detail = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s, "all_stats": stats}
    else:
        rounds = []
        measuring = time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - measuring < seconds:
            rounds.append(run_round(workload, seed, "run", deadline, digests))
            if time.monotonic() + rounds[-1].wall_s > deadline - 10:
                break
        setups = [r.setup_s for r in rounds]
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 15:
            setups.append(setup_probe(workload, seed, deadline))
        values = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units("end_to_end").items()}
        detail = {
            "wall_s": [r.wall_s for r in rounds],
            "setup_s": setups,
            "peak_rss_mb": [r.rss_mb for r in rounds],
        }
    attempted, failed, failures = _ops(rounds)
    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**result, "workload": workload.name, "seed": seed, "trace": trace,
              "run_s": time.monotonic() - started, "detail": detail, "failures": failures}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "harnack" / "cli.py").is_file():
        print(f"error: no harnack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
