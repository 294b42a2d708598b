"""On-disk kernel cache: magic ``ZDK1``, bit-exact binary64 payloads.

File layout (all integers little-endian):

===========  ======================================================
bytes        meaning
===========  ======================================================
``4s``       magic ``b"ZDK1"``
``u32``      dimension d
``u32``      kind: 0 = free field, 1 = killed field, 2 = green table
``i64``      step count n (0 for green tables)
kind 0       no extra header; payload is the (2n+1)^d box, row-major
kind 1       ``i64`` radius, d×``i64`` centre, d×``i64`` start point;
             payload is the |B|-vector over the ball's point index
kind 2       ``i64`` radius, d×``i64`` centre; payload is the
             |B| x |B| table, row-major
===========  ======================================================

Payloads are raw little-endian binary64, so a write/read round trip is
bit-exact, and ``verify`` can re-derive any file from scratch and compare
bytes.  There is no checksum: reading checks only the magic, the header and
that the payload length matches the declared shape (``(2n+1)^d`` cells, or
``|B|`` / ``|B|^2`` for the ball of the header's radius).  All computations
feeding the cache are deterministic (fixed floating-point operation order,
single-threaded sparse solves).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .lattice import Point, as_point, ball_count, make_ball
from .report import write_atomic
from .rng import philox

MAGIC = b"ZDK1"
KIND_FREE = 0
KIND_KILLED = 1
KIND_GREEN = 2

_HEAD = struct.Struct("<4sIIq")
_I64 = struct.Struct("<q")


@dataclass
class CacheRecord:
    """Decoded header + payload of one cache file."""

    kind: int
    dimension: int
    n: int
    values: np.ndarray
    center: Point | None = None
    radius: int | None = None
    start: Point | None = None


def _pack_points(*points: Point) -> bytes:
    return b"".join(_I64.pack(c) for p in points for c in p)


def encode_free(d: int, n: int, values: np.ndarray) -> bytes:
    box = np.ascontiguousarray(values, dtype="<f8")
    if box.shape != (2 * n + 1,) * d:
        raise ValueError("free-field payload has the wrong shape")
    return _HEAD.pack(MAGIC, d, KIND_FREE, n) + box.tobytes()


def encode_killed(center: Point, radius: int, start: Point, n: int, values: np.ndarray) -> bytes:
    d = len(center)
    vec = np.ascontiguousarray(values, dtype="<f8")
    head = _HEAD.pack(MAGIC, d, KIND_KILLED, n) + _I64.pack(radius)
    return head + _pack_points(center, start) + vec.tobytes()


def encode_green(center: Point, radius: int, values: np.ndarray) -> bytes:
    d = len(center)
    table = np.ascontiguousarray(values, dtype="<f8")
    head = _HEAD.pack(MAGIC, d, KIND_GREEN, 0) + _I64.pack(radius)
    return head + _pack_points(center) + table.tobytes()


def _header_ints(blob: bytes, offset: int, count: int) -> tuple[int, ...]:
    if len(blob) < offset + count * _I64.size:
        raise ValueError(f"{len(blob)} bytes is shorter than the file header")
    return struct.unpack_from(f"<{count}q", blob, offset)


def decode(blob: bytes) -> CacheRecord:
    """Parse one cache file; ``ValueError`` if its header or length is wrong."""
    if len(blob) < _HEAD.size:
        raise ValueError(f"{len(blob)} bytes is shorter than the file header")
    magic, d, kind, n = _HEAD.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError("not a ZDK1 cache file")
    if not 1 <= d <= 64 or n < 0:
        raise ValueError(f"bad header: dimension {d}, step count {n}")
    offset = _HEAD.size
    rec = CacheRecord(kind=kind, dimension=d, n=n, values=np.empty(0))
    if kind == KIND_FREE:
        shape = (2 * n + 1,) * d
    elif kind in (KIND_KILLED, KIND_GREEN):
        ints = _header_ints(blob, offset, 1 + d * (2 if kind == KIND_KILLED else 1))
        offset += len(ints) * _I64.size
        rec.radius, rec.center = ints[0], ints[1 : d + 1]
        if kind == KIND_KILLED:
            rec.start = ints[d + 1 :]
        if rec.radius < 0:
            raise ValueError(f"bad header: radius {rec.radius}")
        size = ball_count(d, rec.radius)
        shape = (size,) if kind == KIND_KILLED else (size, size)
    else:
        raise ValueError(f"unknown cache kind {kind}")
    if len(blob) - offset != 8 * np.prod(shape, dtype=object):
        raise ValueError(f"payload of {len(blob) - offset} bytes does not hold a {shape} table")
    rec.values = np.frombuffer(blob, dtype="<f8", offset=offset).reshape(shape)
    return rec


def _coord_tag(p: Point) -> str:
    return "_".join(str(c) for c in p)


class KernelCache:
    """A directory of ``.zdk`` files with deterministic names."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _write(self, name: str, blob: bytes) -> Path:
        path = self.directory / name
        write_atomic(path, blob)
        return path

    def put_free(self, d: int, n: int, values: np.ndarray) -> Path:
        return self._write(f"free-d{d}-n{n}.zdk", encode_free(d, n, values))

    def put_killed(self, center, radius: int, start, n: int, values: np.ndarray) -> Path:
        center, start = as_point(center), as_point(start)
        name = f"killed-d{len(center)}-r{radius}-c{_coord_tag(center)}-x{_coord_tag(start)}-n{n}.zdk"
        return self._write(name, encode_killed(center, radius, start, n, values))

    def put_green(self, center, radius: int, values: np.ndarray) -> Path:
        center = as_point(center)
        name = f"green-d{len(center)}-r{radius}-c{_coord_tag(center)}.zdk"
        return self._write(name, encode_green(center, radius, values))

    def _decode(self, path: Path) -> CacheRecord:
        try:
            return decode(path.read_bytes())
        except ValueError as exc:
            raise ValueError(f"corrupt cache file {path.name}: {exc}") from None

    def list_entries(self) -> list[dict[str, Any]]:
        """Names, kinds and payload shapes of every cache file, sorted."""
        entries = []
        if not self.directory.is_dir():
            return entries
        for path in sorted(self.directory.glob("*.zdk")):
            rec = self._decode(path)
            entries.append(
                {
                    "file": path.name,
                    "kind": {0: "free", 1: "killed", 2: "green"}[rec.kind],
                    "dimension": rec.dimension,
                    "n": rec.n,
                    "values": int(rec.values.size),
                }
            )
        return entries

    def clear(self) -> int:
        """Delete every cache file; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.zdk")):
                path.unlink()
                removed += 1
        return removed

    def _rederive(self, rec: CacheRecord) -> bytes:
        from . import kernel
        from .green import green_solve
        if rec.kind == KIND_FREE:
            return encode_free(rec.dimension, rec.n, kernel.free_field(rec.dimension, rec.n))
        if rec.kind == KIND_KILLED:
            assert rec.center is not None and rec.radius is not None and rec.start is not None
            ball = make_ball(rec.center, rec.radius)
            for _, block in kernel.iter_killed_vectors(ball, [ball.index_of(rec.start)], rec.n):
                pass
            return encode_killed(rec.center, rec.radius, rec.start, rec.n, block[:, 0])
        if rec.kind == KIND_GREEN:
            assert rec.center is not None and rec.radius is not None
            table = green_solve(make_ball(rec.center, rec.radius))
            return encode_green(rec.center, rec.radius, table.values)
        raise ValueError(f"unknown cache kind {rec.kind}")

    def verify(self, fraction: float, seed: int) -> dict[str, Any]:
        """Re-derive a sampled fraction of files (at least one) bit-exactly.

        Returns a summary dict; ``ok`` is False if any sampled file's bytes
        differ from a from-scratch recomputation or cannot be read.
        ``ValueError`` if ``fraction`` lies outside (0, 1] or ``seed``
        outside [0, 2^64).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
        gen = philox(seed, stream=0xCAC4E)
        files = sorted(self.directory.glob("*.zdk")) if self.directory.is_dir() else []
        if not files:
            return {"ok": True, "checked": 0, "total": 0, "mismatches": []}
        count = max(1, int(round(fraction * len(files))))
        picks = sorted(gen.choice(len(files), size=min(count, len(files)), replace=False).tolist())
        mismatches = []
        for i in picks:
            try:
                blob = files[i].read_bytes()
                intact = self._rederive(decode(blob)) == blob
            except Exception:
                # Unreadable or undecodable entries are corruption too, not just value drift.
                intact = False
            if not intact:
                mismatches.append(files[i].name)
        return {
            "ok": not mismatches,
            "checked": len(picks),
            "total": len(files),
            "mismatches": mismatches,
        }
