"""Each output check passes on right values and fails on a perturbed one.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np

import checks


def _write_zdk(path: Path, d: int, kind: int, n: int, values, radius: int = 0) -> Path:
    head = struct.pack("<4sIIq", b"ZDK1", d, kind, n)
    if kind != 0:
        head += struct.pack("<q", radius) + struct.pack(f"<{d}q", *(0,) * d)
    path.write_bytes(head + np.ascontiguousarray(values, dtype="<f8").tobytes())
    return path


def _binomial(n: int) -> np.ndarray:
    out = np.zeros(2 * n + 1)
    for k in range(-n, n + 1, 2):
        out[k + n] = math.comb(n, (n + k) // 2) / 2**n
    return out


def test_free_field_check(tmp_path: Path) -> None:
    right = _binomial(10)
    assert checks.check_free_d1(_write_zdk(tmp_path / "free-d1-n10.zdk", 1, 0, 10, right)) is None
    off = right.copy()
    off[10] *= 1 + 1e-9
    assert checks.check_free_d1(_write_zdk(tmp_path / "free-d1-n10.zdk", 1, 0, 10, off)) is not None
    leak = right.copy()
    leak[1] = 1e-300  # a parity-forbidden site
    assert checks.check_free_d1(_write_zdk(tmp_path / "free-d1-n10.zdk", 1, 0, 10, leak)) is not None


def test_green_table_check(tmp_path: Path) -> None:
    right = checks.gamblers_ruin_green(4)
    assert right[4, 4] == 5.0  # G(0,0) = (R+1)^2 / (R+1) on {-4..4}
    path = tmp_path / "green-d1-r4-c0.zdk"
    assert checks.check_green_d1(_write_zdk(path, 1, 2, 0, right, radius=4)) is None
    off = right.copy()
    off[2, 7] += 1e-8
    assert checks.check_green_d1(_write_zdk(path, 1, 2, 0, off, radius=4)) is not None


def test_d1_constant_rows_check(tmp_path: Path) -> None:
    path = tmp_path / "ehi.small_r.d1.csv"
    rows = [(R, checks.d1_harnack_constant(R)) for R in range(1, 9)]
    path.write_text("R,C\n" + "".join(f"{R},{C!r}\n" for R, C in rows))
    assert checks.check_d1_constant_rows(path) is None
    rows[5] = (rows[5][0], rows[5][1] * (1 + 1e-10))
    path.write_text("R,C\n" + "".join(f"{R},{C!r}\n" for R, C in rows))
    assert checks.check_d1_constant_rows(path) is not None


def test_small_r_check(tmp_path: Path) -> None:
    C, ratios = checks.dense_harnack_constant(2, 4)
    witness = max(ratios, key=ratios.get)

    def report(R, value, z):
        worst = {"R": R, "C": value, "witness_z": list(z)}
        return {"audits": [{"audit_id": "ehi.small_r.d2", "worst": worst}]}

    assert checks.check_small_r_worst(report(4, C, witness), 2, 4) is None
    assert checks.check_small_r_worst(report(4, C * (1 + 1e-8), witness), 2, 4) is not None
    assert checks.check_small_r_worst(report(3, C, witness), 2, 4) is not None
    assert checks.check_small_r_worst(report(4, C, (0, 0)), 2, 4) is not None


def test_cache_listing_and_verify_checks(tmp_path: Path) -> None:
    files = [_write_zdk(tmp_path / f"free-d1-n{n}.zdk", 1, 0, n, _binomial(n)) for n in range(65)]
    files += [_write_zdk(tmp_path / f"green-d1-r{R}-c0.zdk", 1, 2, 0, checks.gamblers_ruin_green(R), radius=R)
              for R in (4, 8, 16)]
    files.sort()
    listing = [{"file": p.name, "kind": "free" if p.name.startswith("free") else "green", "dimension": 1,
                "n": checks.read_zdk(p)["n"], "values": checks.read_zdk(p)["values"].size} for p in files]
    assert checks.check_cache_listing(json.dumps(listing), files) is None
    listing[3]["values"] += 1
    assert checks.check_cache_listing(json.dumps(listing), files) is not None
    assert checks.check_cache_listing(json.dumps(listing[:-1]), files[:-1]) is not None
    assert checks.check_verify_output("checked 68 of 68 cache file(s): ok\n", files) is None
    assert checks.check_verify_output("checked 1 of 68 cache file(s): ok\n", files) is not None


def test_body_digest(tmp_path: Path) -> None:
    body = {"schema": 1, "config": {"seed": 0, "out": "a.json"}, "passed": True,
            "audits": [{"audit_id": "x", "constants": {"c": 1.5}}], "timings": {"x": 0.1}}
    first, second, third = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    first.write_text(json.dumps(body))
    body["timings"], body["config"]["out"] = {"x": 9.9}, "b.json"
    second.write_text(json.dumps(body))
    assert checks.body_digest(first) == checks.body_digest(second)
    body["audits"][0]["constants"]["c"] = 1.5000000000000002
    third.write_text(json.dumps(body))
    assert checks.body_digest(first) != checks.body_digest(third)
    rows = tmp_path / "x.csv"
    rows.write_text("R,C\n1,1.0\n")
    with_rows = checks.body_digest(first, [rows])
    rows.write_text("R,C\n1,1.1\n")
    assert checks.body_digest(first, [rows]) != with_rows


def test_missing_layers(_tmp_path: Path) -> None:
    import run

    d1, d2 = run.WORKLOADS["all-d1-csv-cache"], run.WORKLOADS["all-d2"]
    recorded = {name: 1.0 for name in run.units("per_layer")}
    assert run.missing_layers(d1, recorded) is None
    silent = {k: v for k, v in recorded.items() if not k.startswith("lattice.neighbors.")}
    assert "lattice.neighbors.calls" in run.missing_layers(d1, silent)
    no_cache = {k: v for k, v in recorded.items() if not k.startswith("cache.")}
    assert run.missing_layers(d2, no_cache) is None
    assert run.missing_layers(d1, no_cache) is not None


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as scratch:
                test(Path(scratch))
            print(f"ok  {name}")
