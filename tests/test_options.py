"""The package's option surface: which public parameters carry a default.

A fixed audit value (a gate, a grid size, a sample count) lives in one
module constant, not in a keyword default that every caller repeats.  A
default stays only where callers pass both it and other values, so a new
knob has to be added here, with its reason, on purpose.
"""

import importlib
import inspect
import pkgutil

import harnack

KEPT = {  # (module.function, parameter): why it keeps a default
    ("cli.main", "argv"): "None reads sys.argv; tests pass their own lists",
    ("green.green_solve", "columns"):
        "cli and equivalence_audit solve full tables, ugi_audit and comparability_ratio some columns",
    ("lattice.l1_path", "anchor"): "chain_certificate walks unanchored, build_ball_chain anchored",
    ("lattice.FiniteDomain.inner_mask", "subset"):
        "the domain's own inner boundary (tests), or a subset's (green, harmonic)",
    ("lattice.FiniteDomain.within", "center"): "half balls about the centre, and _random_subset's other centres",
    ("report.write_atomic", "newline"): "JSON and cache files use the default, CSV rows newline=''",
}


def _public_functions():
    for info in pkgutil.iter_modules(harnack.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"harnack.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_only_the_kept_parameters_have_defaults():
    defaulted = {
        (qualname, param.name)
        for qualname, fn in _public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert defaulted == set(KEPT)
