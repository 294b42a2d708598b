"""Per-layer tracing of one harnack process, installed from outside the package.

``install()`` replaces public functions of the harnack modules, the disk
methods of ``KernelCache`` and ``AuditReport``, and SciPy's ``splu`` with
wrappers that record into a flat dict of ``<module>.<function>.<stat>``:

* ``calls``, ``steps`` (generator items) and the named work counts are exact;
* ``total_s`` is the time inside the function, ``self_s`` that time minus
  the time of the wrapped functions it called;
* hot helpers (``as_point``, ``neighbors``, ``laplacian``) are counted but
  not timed, because timing a million tiny calls costs seconds;
* each audit records ``rss_mb``, the resident high-water mark on return.

The program's code is not changed: every harnack module attribute that
refers to a wrapped function is rebound, which covers both module-global
calls and names imported with ``from .x import f``.
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import time
from collections import defaultdict

COUNTED = {"lattice": ["as_point", "neighbors"], "harmonic": ["laplacian"]}
SPANNED = {
    "lattice": ["make_ball"],
    "kernel": ["free_field", "killed_matrix"],
    "bounds": ["chain_certificate"],
    "exit_time": ["mc_exit_sample"],
    "green": ["green_solve", "green_table_series"],
    "harmonic": [
        "dirichlet_solve",
        "dirichlet_iterate",
        "dirichlet_mc",
        "balayage",
        "random_harmonic",
        "harmonic_measure_matrix",
    ],
    "ehi": ["hitting_kernels", "harnack_constant_exact"],
    "cli": ["run"],
}
GENERATORS = {"kernel": ["iter_free_fields", "iter_killed_vectors"]}
AUDITS = {
    "kernel": ["exactness_audit", "projection_audit"],
    "bounds": [
        "near_diagonal_audit",
        "gaussian_lower_audit",
        "gaussian_upper_audit",
        "lclt_error_scan",
        "chain_certificate_batch",
    ],
    "exit_time": ["chernoff_audit", "crude_tail_audit", "mc_consistency_audit"],
    "green": ["equivalence_audit", "killed_lower_audit", "comparability_audit", "ugi_audit"],
    "harmonic": ["dirichlet_triple_audit", "balayage_batch_audit"],
    "ehi": ["d1_closed_form_audit", "small_r_bound_audit", "oscillation_audit", "stability_audit"],
}


class Tracer:
    """Counters and span times of one process; single-threaded use only."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # time of wrapped callees, per open span

    def _open(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        self.stats[name + ".total_s"] += elapsed
        self.stats[name + ".self_s"] += elapsed - child

    def counted(self, name: str, fn):
        stats, key = self.stats, name + ".calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn, after=None, before=None):
        def wrapper(*args, **kwargs):
            self.stats[name + ".calls"] += 1
            if before is not None:
                before(name, args)
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if after is not None:
                after(name, result, args)
            return result

        return wrapper

    def generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.stats[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                self.stats[name + ".steps"] += 1
                yield item

        return wrapper

    # -- figures taken from a wrapped call's result or arguments -------------

    def audit_rss(self, name, _result, _args):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.stats[name + ".rss_mb"] = max(self.stats[name + ".rss_mb"], rss)

    def series_terms(self, name, table, _args):
        self.stats[name + ".terms"] += table.meta["terms"]

    def killed_builds(self, name, args):
        # A build is a miss of the kernel module's memo, looked up before the call.
        if args[0].key() not in sys.modules["harnack.kernel"]._KILLED:
            self.stats[name + ".builds"] += 1

    def cache_written(self, name, path, _args):
        self.stats[name + ".files"] += 1
        self.stats[name + ".bytes"] += path.stat().st_size

    def cache_verified(self, name, summary, _args):
        self.stats[name + ".files"] += summary["checked"]

    def written_to(self, position: int):
        def after(name, _result, args):
            path = args[position]
            if os.path.exists(path):  # write_rows_csv skips audits without rows
                self.stats[name + ".bytes"] += os.path.getsize(path)

        return after

    def lu_factor(self, splu):
        """``splu`` whose factors count and time their ``solve`` calls."""
        tracer = self

        class TracedLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, rhs, *args):
                tracer.stats["lu.solve.calls"] += 1
                tracer.stats["lu.solve.rhs_columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
                start = tracer._open()
                try:
                    return self._lu.solve(rhs, *args)
                finally:
                    tracer._close("lu.solve", start)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        factor = self.spanned("lu.factor", splu)
        return lambda *args, **kwargs: TracedLU(factor(*args, **kwargs))


def install() -> Tracer:
    """Wrap the layers of the harnack package; returns the recorder."""
    import scipy.sparse.linalg as spla

    for name in sorted({"cache", "report", *COUNTED, *SPANNED, *GENERATORS, *AUDITS}):
        importlib.import_module("harnack." + name)
    modules = [m for n, m in sys.modules.items() if n == "harnack" or n.startswith("harnack.")]
    tracer = Tracer()

    def rebind(original, replacement, extra=()):
        for module in [*modules, *extra]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    after_hooks = {"green.green_table_series": tracer.series_terms}
    before_hooks = {"kernel.killed_matrix": tracer.killed_builds}
    for table, make in ((COUNTED, tracer.counted), (GENERATORS, tracer.generator)):
        for module_name, fns in table.items():
            for fn in fns:
                original = getattr(sys.modules["harnack." + module_name], fn)
                rebind(original, make(f"{module_name}.{fn}", original))
    for table in (SPANNED, AUDITS):
        for module_name, fns in table.items():
            for fn in fns:
                name = f"{module_name}.{fn}"
                original = getattr(sys.modules["harnack." + module_name], fn)
                after = tracer.audit_rss if table is AUDITS else after_hooks.get(name)
                rebind(original, tracer.spanned(name, original, after, before_hooks.get(name)))

    rebind(spla.splu, tracer.lu_factor(spla.splu), extra=[spla])
    report = sys.modules["harnack.report"]
    rebind(report.write_json_atomic,
           tracer.spanned("report.write", report.write_json_atomic, tracer.written_to(0)))
    audit_report = report.AuditReport
    audit_report.write_rows_csv = tracer.spanned(
        "report.write", audit_report.write_rows_csv, tracer.written_to(1))
    cache = sys.modules["harnack.cache"].KernelCache
    for method in ("put_free", "put_killed", "put_green"):
        setattr(cache, method, tracer.spanned("cache.write", getattr(cache, method), tracer.cache_written))
    cache.list_entries = tracer.spanned("cache.list", cache.list_entries)
    cache.verify = tracer.spanned("cache.verify", cache.verify, tracer.cache_verified)
    return tracer
