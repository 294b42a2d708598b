"""Counter-based RNG streams: replay, stream independence and named stream tags."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from harnack.rng import philox


def test_same_seed_same_stream_replays():
    a = philox(7, stream=3).integers(0, 1 << 30, size=16)
    b = philox(7, stream=3).integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = philox(7, stream=0).integers(0, 1 << 30, size=16)
    other = philox(7, stream=1).integers(0, 1 << 30, size=16)
    third = philox(8, stream=0).integers(0, 1 << 30, size=16)
    assert not np.array_equal(base, other)
    assert not np.array_equal(base, third)


def test_draw_order_does_not_couple_streams():
    # Drawing from one stream must not perturb another (fresh generators).
    first = philox(0, stream=5).uniform(size=4)
    gen_a = philox(0, stream=6)
    gen_a.uniform(size=1000)
    second = philox(0, stream=5).uniform(size=4)
    assert np.array_equal(first, second)


def test_keys_must_fit_in_64_bits():
    top = (1 << 64) - 1
    assert philox(top, stream=top).integers(0, 2, size=1).shape == (1,)
    for seed, stream in ((1 << 64, 0), (0, 1 << 64), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            philox(seed, stream)


SRC = Path(__file__).resolve().parent.parent / "src" / "harnack"


def _calls(node, function=None):
    """Yield ``(enclosing function or None, call)`` for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield function, child
        yield from _calls(child, child if isinstance(child, ast.FunctionDef) else function)


def test_every_philox_stream_is_built_from_a_named_distinct_constant():
    # A stream argument names a module's ``_*STREAM`` constant, or forwards
    # the ``stream`` parameter of a function whose own callers are checked.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    constants = {}  # (module, name) -> stream tag
    position = {}  # function taking a ``stream`` parameter -> its position
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and re.fullmatch(r"_\w*STREAM", getattr(node.targets[0], "id", "")):
                constants[module, node.targets[0].id] = ast.literal_eval(node.value)
        for node in ast.walk(tree):
            params = [a.arg for a in node.args.args] if isinstance(node, ast.FunctionDef) else []
            if "stream" in params:
                position[node.name] = params.index("stream")
    assert {"philox", "exit_walks"} <= set(position)
    checked = 0
    for module, tree in trees.items():
        for function, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in position:
                continue
            keyword = [k.value for k in call.keywords if k.arg == "stream"]
            stream = keyword[0] if keyword else call.args[position[name]]
            names = {n.id for n in ast.walk(stream) if isinstance(n, ast.Name)}
            forwarded = "stream" in names and function is not None and function.name in position
            assert forwarded or any((module, n) in constants for n in names), (
                f"{module}:{call.lineno}: {ast.unparse(stream)} names no _*STREAM constant"
            )
            checked += 1
    assert checked >= 7
    tags = list(constants.values())
    assert len(set(tags)) == len(tags), constants
