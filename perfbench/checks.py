"""Output checks computed by the benchmark itself, without importing harnack.

Every check returns ``None`` when the program's output is right and a short
message naming what is wrong otherwise.  The references are closed forms
(binomial law, gambler's-ruin Green function, the 1-d Harnack constant) or a
dense NumPy solve, so a fault in the program's own numerics cannot hide
behind a second copy of the same code.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

ZDK_MAGIC = b"ZDK1"
_ZDK_HEAD = struct.Struct("<4sIIq")
_I64 = struct.Struct("<q")


def read_zdk(path: Path) -> dict:
    """Decode one ``.zdk`` file from its documented byte layout."""
    blob = Path(path).read_bytes()
    magic, d, kind, n = _ZDK_HEAD.unpack_from(blob, 0)
    if magic != ZDK_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    offset = _ZDK_HEAD.size
    rec = {"kind": kind, "d": d, "n": n}
    if kind != 0:
        rec["radius"] = _I64.unpack_from(blob, offset)[0]
        offset += _I64.size
        rec["center"] = struct.unpack_from(f"<{d}q", blob, offset)
        offset += d * _I64.size
    rec["values"] = np.frombuffer(blob, dtype="<f8", offset=offset)
    return rec


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float((np.abs(got - want) / scale).max())


def check_free_d1(path: Path, rel_tol: float = 1e-12) -> str | None:
    """``free-d1-n<n>.zdk`` must hold the binomial law of the n-step walk."""
    rec = read_zdk(path)
    n = rec["n"]
    if rec["kind"] != 0 or rec["d"] != 1:
        return f"{path.name}: expected a 1-d free field, got kind {rec['kind']} d {rec['d']}"
    got = rec["values"]
    if got.shape != (2 * n + 1,):
        return f"{path.name}: payload has {got.size} values, expected {2 * n + 1}"
    sites = np.arange(-n, n + 1)
    allowed = (sites + n) % 2 == 0
    if np.any(got[~allowed] != 0.0):
        return f"{path.name}: parity-forbidden sites are not exactly zero"
    want = np.array([math.comb(n, (n + k) // 2) / 2**n for k in sites[allowed]])
    gap = _relative_gap(got[allowed], want)
    if gap > rel_tol:
        return f"{path.name}: binomial law off by {gap:.3e} relative"
    return None


def gamblers_ruin_green(R: int) -> np.ndarray:
    """Green function of the walk on {-R..R} killed at +-(R+1), in site order."""
    x = np.arange(-R, R + 1)
    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    return 2.0 * (lo + R + 1) * (R + 1 - hi) / (2 * R + 2)


def check_green_d1(path: Path, rel_tol: float = 1e-10) -> str | None:
    """``green-d1-r<R>.zdk`` must equal the gambler's-ruin Green function."""
    rec = read_zdk(path)
    if rec["kind"] != 2 or rec["d"] != 1:
        return f"{path.name}: expected a 1-d Green table, got kind {rec['kind']} d {rec['d']}"
    R = rec["radius"]
    side = 2 * R + 1
    if rec["center"] != (0,) or rec["values"].size != side * side:
        return f"{path.name}: centre {rec['center']} or size {rec['values'].size} is wrong"
    gap = _relative_gap(rec["values"].reshape(side, side), gamblers_ruin_green(R))
    if gap > rel_tol:
        return f"{path.name}: Green table off by {gap:.3e} relative"
    return None


def d1_harnack_constant(R: int) -> float:
    S = R // 2
    return (R + 1 + S) / (R + 1 - S)


def check_d1_constant_rows(path: Path, column: str = "C", rel_tol: float = 1e-12) -> str | None:
    """Every row's ``column`` must be the 1-d closed-form Harnack constant."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        return f"{path.name}: no rows"
    for row in rows:
        R = int(row["R"])
        got, want = float(row[column]), d1_harnack_constant(R)
        if abs(got - want) > rel_tol * want:
            return f"{path.name}: R={R} {column}={got!r}, closed form {want!r}"
    return None


def ball_points(d: int, R: int) -> list[tuple[int, ...]]:
    """The l1 ball of radius R about the origin, in lexicographic order."""
    return [p for p in itertools.product(range(-R, R + 1), repeat=d) if sum(map(abs, p)) <= R]


def dense_harnack_constant(d: int, R: int) -> tuple[float, dict[tuple[int, ...], float]]:
    """C(R) from a dense solve of the ball's exit-position (hitting) kernels.

    Returns the constant and, per boundary point z, the ratio
    ``max h_z / min h_z`` over the half ball ``|x| <= R // 2``.
    """
    inside = ball_points(d, R)
    index = {p: i for i, p in enumerate(inside)}
    shell = [p for p in ball_points(d, R + 1) if sum(map(abs, p)) == R + 1]
    shell_index = {p: j for j, p in enumerate(shell)}
    w = 1.0 / (2 * d)
    A = np.eye(len(inside))
    coupling = np.zeros((len(inside), len(shell)))
    for i, p in enumerate(inside):
        for axis, step in itertools.product(range(d), (-1, 1)):
            q = p[:axis] + (p[axis] + step,) + p[axis + 1 :]
            if q in index:
                A[i, index[q]] -= w
            else:
                coupling[i, shell_index[q]] += w
    hitting = np.linalg.solve(A, coupling)
    half = [i for i, p in enumerate(inside) if sum(map(abs, p)) <= R // 2]
    sub = hitting[half, :]
    ratios = sub.max(axis=0) / sub.min(axis=0)
    return float(ratios.max()), dict(zip(shell, ratios.tolist()))


def check_small_r_worst(report: dict, d: int, R: int, rel_tol: float = 1e-9) -> str | None:
    """The report's worst ``ehi.small_r`` constant, re-solved densely at radius R."""
    audit = next((a for a in report["audits"] if a["audit_id"] == f"ehi.small_r.d{d}"), None)
    if audit is None:
        return f"report has no ehi.small_r.d{d} audit"
    worst = audit["worst"]
    if worst["R"] != R:
        return f"worst small-R constant is at R={worst['R']}, expected R={R}"
    want, ratios = dense_harnack_constant(d, R)
    if abs(worst["C"] - want) > rel_tol * want:
        return f"C({R}) = {worst['C']!r} in d={d}, dense solve gives {want!r}"
    witness = tuple(worst["witness_z"])
    if witness not in ratios or abs(ratios[witness] - want) > rel_tol * want:
        return f"witness {witness} does not attain C({R}) in d={d}"
    return None


D1_CACHE_FILES = {f"free-d1-n{n}.zdk" for n in range(65)} | {f"green-d1-r{R}-c0.zdk" for R in (4, 8, 16)}


def check_cache_listing(stdout: str, files: list[Path]) -> str | None:
    """``harnack cache list`` output must describe exactly the files on disk."""
    if {p.name for p in files} != D1_CACHE_FILES:
        return "cache holds other files than free-d1-n0..64 and green-d1-r{4,8,16}"
    listed = json.loads(stdout)
    if [e["file"] for e in listed] != sorted(p.name for p in files):
        return "cache list names other files than the directory holds"
    for entry, path in zip(listed, sorted(files)):
        rec = read_zdk(path)
        want = ({0: "free", 2: "green"}.get(rec["kind"]), rec["d"], rec["n"], rec["values"].size)
        if (entry["kind"], entry["dimension"], entry["n"], entry["values"]) != want:
            return f"cache list entry {entry} does not match {path.name}"
    return None


def check_verify_output(stdout: str, files: list[Path]) -> str | None:
    """``harnack cache verify --fraction 1.0`` must check every file and pass."""
    want = f"checked {len(files)} of {len(files)} cache file(s): ok"
    return None if stdout.strip() == want else f"cache verify printed {stdout.strip()!r}, expected {want!r}"


def body_digest(report_path: Path, row_files: list[Path] = ()) -> str:
    """Digest of a report body without ``timings`` and the echoed ``out`` path."""
    body = json.loads(Path(report_path).read_text())
    body.pop("timings", None)
    body["config"].pop("out", None)
    digest = hashlib.sha256(json.dumps(body, indent=2).encode())
    for path in sorted(row_files):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
