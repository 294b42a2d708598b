"""On-disk kernel cache: magic ``ZDK1``, bit-exact binary64 payloads.

File layout (all integers little-endian):

===========  ======================================================
bytes        meaning
===========  ======================================================
``4s``       magic ``b"ZDK1"``
``u32``      dimension d
``u32``      kind: 0 = free field, 1 = killed field, 2 = green table
``i64``      step count n (0 for green tables)
kind 0       no extra header; payload is the (2n+1)^d box, row-major:
             the orthant ``{0..n}^d`` it is written from, mirrored
kind 1       ``i64`` radius, d×``i64`` centre, d×``i64`` start point;
             payload is the |B|-vector over the ball's point index
kind 2       ``i64`` radius, d×``i64`` centre; payload is the
             |B| x |B| table, row-major
===========  ======================================================

Payloads are raw little-endian binary64, so a write/read round trip is
bit-exact, and ``verify`` can re-derive any file from scratch and compare
bytes.  There is no checksum.  ``_int_count`` and ``_shape`` state the rule
once, for ``decode`` and every writer: a known kind, a dimension in 1..3
(``MAX_DIMENSION``, also the CLI's largest ``--dim``), no negative step
count or radius, a killed step count of at most ``MAX_KILLED_STEPS``, a
green step count of 0, a killed start inside its ball, and a payload of
``(2n+1)^d`` cells, or ``|B|`` / ``|B|^2`` for the header's ball; writers
raise ``ValueError`` on anything else before a file is touched, and the
free writer takes the ``(n+1)^d`` orthant and nothing else.  All
computations feeding the cache are deterministic (fixed floating-point
operation order, single-threaded sparse solves).
"""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .lattice import Point, as_point, ball_count, graph_distance, make_ball
from .report import write_atomic
from .rng import philox

MAGIC = b"ZDK1"
KIND_FREE = 0
KIND_KILLED = 1
KIND_GREEN = 2
_KIND_NAMES = ("free", "killed", "green")

MAX_DIMENSION = 3  # desk scale: a larger d makes re-deriving a ball's table allocate (2R + 3)^d cells
MAX_KILLED_STEPS = 1 << 16  # a killed payload is |B| cells for any n, so only this caps what verify walks
_HEAD = struct.Struct("<4sIIq")
_VERIFY_STREAM = 0xCAC4E  # stream tag for the files ``verify`` samples


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


def _int_count(kind: int, d: int) -> int:
    """How many ``i64`` follow ``_HEAD``: none (free), radius and centre (green), then the start (killed)."""
    if kind not in (KIND_FREE, KIND_KILLED, KIND_GREEN):
        raise ValueError(f"unknown cache kind {kind}")
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"bad header: dimension {d}")
    return (0, 1 + 2 * d, 1 + d)[kind]


def _shape(kind: int, d: int, n: int, ints: Sequence[int]) -> tuple[int, ...]:
    """Payload shape of a record; ``ValueError`` for any header the reader rejects."""
    count = _int_count(kind, d)
    if len(ints) != count:
        raise ValueError(f"a {_KIND_NAMES[kind]} header in dimension {d} holds {count} integers, not {len(ints)}")
    if n < 0 or (kind == KIND_KILLED and n > MAX_KILLED_STEPS) or (kind == KIND_GREEN and n != 0):
        raise ValueError(f"bad header: step count {n}")
    if kind == KIND_FREE:
        return (2 * n + 1,) * d
    radius, center, start = ints[0], ints[1 : d + 1], ints[d + 1 :]
    if radius < 0:
        raise ValueError(f"bad header: radius {radius}")
    if kind == KIND_KILLED and graph_distance(start, center) > radius:
        raise ValueError(f"bad header: start {start} lies outside the ball B({center}, {radius})")
    size = ball_count(d, radius)
    return (size,) if kind == KIND_KILLED else (size, size)


def _encode(kind: int, d: int, n: int, ints: tuple[int, ...], values: np.ndarray) -> bytes:
    shape = _shape(kind, d, n, ints)
    payload = np.ascontiguousarray(values, dtype="<f8")
    if payload.shape != shape:
        raise ValueError(f"{_KIND_NAMES[kind]} payload of shape {payload.shape} is not the {shape} of its header")
    try:
        head = struct.pack(f"<4sIIq{len(ints)}q", MAGIC, d, kind, n, *ints)
    except struct.error as exc:
        raise ValueError(f"header does not fit the ZDK1 layout: {exc}") from None
    return head + payload.tobytes()


def encode_free(d: int, n: int, values: np.ndarray) -> bytes:
    """A free record from the orthant ``{0..n}^d`` of ``p_n(0, .)``; its payload mirrors it to the box ``{-n..n}^d``."""
    _shape(KIND_FREE, d, n, ())  # the header's rule first, before d and n size anything
    if np.shape(values) != (n + 1,) * d:
        raise ValueError(f"free field of shape {np.shape(values)} is not the {(n + 1,) * d} orthant of its header")
    for axis in range(d):  # cells n..1 of an axis, read backwards, stand at -n..-1
        values = np.concatenate([np.take(values, np.arange(n, 0, -1), axis=axis), values], axis=axis)
    return _encode(KIND_FREE, d, n, (), values)


def encode_killed(center: Point, radius: int, start: Point, n: int, values: np.ndarray) -> bytes:
    return _encode(KIND_KILLED, len(center), n, (radius, *center, *start), values)


def encode_green(center: Point, radius: int, values: np.ndarray) -> bytes:
    return _encode(KIND_GREEN, len(center), 0, (radius, *center), values)


def decode(blob: bytes) -> CacheRecord:
    """Parse one cache file; ``ValueError`` if its header or length is wrong."""
    if len(blob) < _HEAD.size:
        raise ValueError(f"{len(blob)} bytes is shorter than the file header")
    magic, d, kind, n = _HEAD.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError("not a ZDK1 cache file")
    count = _int_count(kind, d)
    offset = _HEAD.size + 8 * count
    if len(blob) < offset:
        raise ValueError(f"{len(blob)} bytes is shorter than the file header")
    ints = struct.unpack_from(f"<{count}q", blob, _HEAD.size)
    shape = _shape(kind, d, n, ints)
    if len(blob) - offset != 8 * np.prod(shape, dtype=object):
        raise ValueError(f"payload of {len(blob) - offset} bytes does not hold a {shape} table")
    values = np.frombuffer(blob, dtype="<f8", offset=offset).reshape(shape)
    if not count:
        return CacheRecord(kind, d, n, values)
    return CacheRecord(kind, d, n, values, center=ints[1 : d + 1], radius=ints[0], start=ints[d + 1 :] or None)


def _coord_tag(p: Point) -> str:
    return "_".join(str(c) for c in p)


class KernelCache:
    """A directory of ``.zdk`` files with deterministic names."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _write(self, name: str, blob: bytes) -> Path:
        write_atomic(self.directory / name, blob)
        return self.directory / name

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

    def _files(self) -> list[Path]:
        """The sorted ``*.zdk`` files: none for a missing directory, ``NotADirectoryError`` for a non-directory."""
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(self.directory))
        return sorted(self.directory.glob("*.zdk"))

    def list_entries(self) -> list[dict[str, Any]]:
        """Names, kinds and payload shapes of every cache file, sorted."""
        entries = []
        for path in self._files():
            rec = self._decode(path)
            entries.append({"file": path.name, "kind": _KIND_NAMES[rec.kind], "dimension": rec.dimension,
                            "n": rec.n, "values": int(rec.values.size)})
        return entries

    def clear(self) -> int:
        """Delete every cache file; returns the number removed."""
        files = self._files()
        for path in files:
            path.unlink()
        return len(files)

    def _rederive(self, rec: CacheRecord) -> bytes:
        from . import kernel
        from .green import green_solve
        if rec.kind == KIND_FREE:
            return encode_free(rec.dimension, rec.n, kernel.free_field(rec.dimension, rec.n))
        ball = make_ball(rec.center, rec.radius)
        if rec.kind == KIND_GREEN:
            return encode_green(rec.center, rec.radius, green_solve(ball))
        for _, block in kernel.iter_killed_vectors(ball, [ball.index_of(rec.start)], rec.n):
            pass
        return encode_killed(rec.center, rec.radius, rec.start, rec.n, block[:, 0])

    def verify(self, fraction: float, seed: int) -> dict[str, Any]:
        """Re-derive a sampled fraction of files (at least one) bit-exactly.

        Returns a summary dict; ``ok`` is False if any sampled file's bytes
        differ from a from-scratch recomputation or cannot be read.
        ``ValueError`` if ``fraction`` lies outside (0, 1] or ``seed``
        outside [0, 2^64).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
        gen = philox(seed, stream=_VERIFY_STREAM)
        files = self._files()
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
