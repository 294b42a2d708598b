"""Geometry of the integer lattice Z^d under the graph (l1) metric.

Conventions used throughout the package:

* a *point* is a plain tuple of Python ints, one entry per coordinate;
* ``graph_distance(x, y) = sum(|x_i - y_i|)`` — the path metric of the
  nearest-neighbour graph;
* the *ball* ``B(x0, R)`` is the set of points at distance <= R from ``x0``;
* the *outer boundary* of a finite set A is every point outside A with a
  neighbour inside; the *inner boundary* is every point of A with a
  neighbour outside (``FiniteDomain.inner_mask``, a mask over the interior
  index).  For a ball the outer boundary sits at distance exactly R+1 and
  the inner boundary at distance exactly R, because one unit step changes
  the distance to the centre by exactly one.

A :class:`FiniteDomain` (a ball or any finite point set) indexes its interior
lexicographically, then its outer boundary.  This *closure order* is the one
index of the package: the domain keeps it as a dense box over its bounding
box (point to position) and as the closure indices of every interior point's
2d neighbours, so that every other module addresses fields as flat numpy
vectors and builds lattice operators from one array.  It also finds the
domain's lattice symmetries as index maps, so that walk quantities invariant
under them need only be computed once per orbit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Point = tuple[int, ...]

#: Chain length never exceeds this, independent of R (for R > 32 the spacing
#: floor(R/8) >= 4 gives ceil(d(u,v)/spacing) + 1 <= ceil(8R/(R-7)) + 1 <= 12).
CHAIN_LENGTH_CAP = 12


def as_point(p: Iterable[int]) -> Point:
    """Coerce an iterable of integers to a canonical point tuple."""
    out = tuple(int(c) for c in p)
    if not out:
        raise ValueError("points must have at least one coordinate")
    return out


def _require_same_dimension(x: Point, y: Point) -> None:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")


def graph_distance(x: Point, y: Point) -> int:
    """l1 distance between two points of the same dimension."""
    _require_same_dimension(x, y)
    return sum(abs(a - b) for a, b in zip(x, y))


def neighbors(x: Point) -> list[Point]:
    """The 2d lattice neighbours of ``x`` in a fixed deterministic order."""
    out = []
    for axis in range(len(x)):
        for delta in (-1, 1):
            out.append(x[:axis] + (x[axis] + delta,) + x[axis + 1 :])
    return out


def ball_count(d: int, r: int) -> int:
    """Closed-form cardinality of the l1 ball: sum_k 2^k C(d,k) C(r,k)."""
    if d < 1 or r < 0:
        raise ValueError("need d >= 1 and r >= 0")
    return sum(
        (1 << k) * math.comb(d, k) * math.comb(r, k) for k in range(0, min(d, r) + 1)
    )


@dataclass(frozen=True, eq=False)
class FiniteDomain:
    """A finite set of lattice points with its outer boundary and neighbour array.

    Fields over the domain are indexed in *closure order*: the interior
    (lexicographic, ``coords``) first, then the outer boundary (``outer_coords``,
    lexicographic).  ``neighbor_index[i, k]`` is the closure index of the
    k-th neighbour of interior point i, in :func:`neighbors` order, so an
    index ``>= len(D)`` is a step out of the domain.  ``box`` holds the
    closure index of every cell of the bounding box grown by one, the cell
    ``p - corner`` for point ``p``, and -1 off the closure; it answers
    :meth:`closure_index`.  The point tuples (``interior``,
    ``outer_boundary``) are built on first use.  Build
    one with :func:`make_ball` (which also sets ``center``, ``radius`` and
    :meth:`key`) or :meth:`from_points`.  Domains compare by identity.
    """

    coords: np.ndarray = field(repr=False)
    outer_coords: np.ndarray = field(repr=False)
    neighbor_index: np.ndarray = field(repr=False)
    box: np.ndarray = field(repr=False)
    corner: Point = field(repr=False)
    center: Point | None = None
    radius: int | None = None

    @classmethod
    def from_points(cls, points: Iterable | np.ndarray) -> "FiniteDomain":
        """The domain whose interior is the given points (or ``(m, d)`` integer array)."""
        if not isinstance(points, np.ndarray):
            points = [as_point(p) for p in points]
            if len({len(p) for p in points}) > 1:
                raise ValueError("points must share one dimension")
        if not len(points):
            raise ValueError("domain must contain at least one point")
        return cls._from_cells(np.asarray(points, dtype=np.int64))

    @classmethod
    def _from_cells(
        cls, cells: np.ndarray, center: Point | None = None, radius: int | None = None
    ) -> "FiniteDomain":
        """Index ``cells`` ((m, d) integers) and their outer boundary in a dense box.

        The box spans the cells' bounding box grown by one, so its memory
        grows with that volume, not with the number of cells.
        """
        d = cells.shape[1]
        offsets = np.array(neighbors((0,) * d), dtype=np.int64)
        lo = cells.min(axis=0) - 1
        box = np.full(tuple(cells.max(axis=0) - lo + 2), -1, dtype=np.int64)
        box[tuple((cells - lo).T)] = 0
        inner = np.argwhere(box == 0)  # C order is lexicographic order
        m = len(inner)
        box[tuple(inner.T)] = np.arange(m)
        steps = np.moveaxis(inner[:, None, :] + offsets, -1, 0)  # (d, m, 2d)
        out = box[tuple(steps)] < 0
        box[tuple(steps[:, out])] = -2
        outer = np.argwhere(box == -2)
        box[tuple(outer.T)] = m + np.arange(len(outer))
        arrays = (inner + lo, outer + lo, box[tuple(steps)], box)
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays, corner=as_point(lo), center=center, radius=radius)

    @cached_property
    def interior(self) -> tuple[Point, ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def outer_boundary(self) -> tuple[Point, ...]:
        return tuple(map(tuple, self.outer_coords.tolist()))

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.coords)

    def closure_index(self, p: Point) -> int:
        """Closure index of ``p``, or -1 when ``p`` is off the closure."""
        cell = [c - o for c, o in zip(p, self.corner)]
        if len(p) != len(self.corner) or not all(0 <= c < s for c, s in zip(cell, self.box.shape)):
            return -1
        return int(self.box[tuple(cell)])

    def __contains__(self, p: Point) -> bool:
        """Membership of the interior."""
        return 0 <= self.closure_index(p) < len(self)

    def index_of(self, p: Point) -> int:
        """Interior index of ``p``."""
        i = self.closure_index(p)
        if not 0 <= i < len(self):
            raise ValueError(f"{p} is not an interior point of the domain")
        return i

    def inner_mask(self, subset: np.ndarray | None = None) -> np.ndarray:
        """Interior mask of the inner boundary of ``subset`` (default: the interior).

        ``subset`` holds interior indices; a point is on its inner boundary
        when it lies in the subset and one of its neighbours does not.
        """
        member = np.zeros(len(self) + len(self.outer_coords), dtype=bool)
        member[slice(len(self)) if subset is None else subset] = True
        return member[: len(self)] & ~member[self.neighbor_index].all(axis=1)

    def within(self, r: int, center: Point | None = None) -> np.ndarray:
        """Interior indices at graph distance <= r from ``center`` (default: the ball's)."""
        center = self.center if center is None else center
        return np.flatnonzero(np.abs(self.coords - np.array(center)).sum(axis=1) <= r)

    def symmetries(self) -> np.ndarray:
        """Index images of the domain's lattice symmetries, one row per map.

        The maps are the signed coordinate permutations about the centre of
        the interior's bounding box (any such map of the interior onto
        itself fixes that centre) that carry the interior onto itself:
        ``out[k, i]`` is the interior index of the image of point i under
        map k.  Row 0 is the identity; an asymmetric domain has no other
        row.  Coordinates are doubled about the centre, so half-integer
        centres need no special case.  The maps preserve the nearest-neighbour
        graph, so every walk quantity of the domain is invariant under them.
        """
        lo, hi = self.coords.min(axis=0), self.coords.max(axis=0)
        doubled = 2 * self.coords - (lo + hi)
        maps = []
        for perm in itertools.permutations(range(self.dimension)):
            for signs in itertools.product((1, -1), repeat=self.dimension):
                image = doubled[:, perm] * np.array(signs) + (lo + hi)
                if (image % 2).any():
                    continue  # the map does not carry lattice points to lattice points
                cells = image // 2 - self.corner
                if (cells < 0).any() or (cells >= self.box.shape).any():
                    continue
                index = self.box[tuple(cells.T)]
                if ((index >= 0) & (index < len(self))).all():
                    maps.append(index)
        out = np.stack(maps)
        out.setflags(write=False)
        return out

    def key(self) -> tuple[Point, int]:
        """Hashable identity of a ball, used for module-level caches."""
        if self.radius is None:
            raise ValueError("only balls built by make_ball have a cache key")
        return (self.center, self.radius)


def make_ball(center: Iterable[int], radius: int) -> FiniteDomain:
    """Enumerate ``B(center, radius)`` with its outer boundary.

    The outer boundary of a ball sits at distance radius+1 and its inner
    boundary at distance radius.
    """
    center = as_point(center)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = len(center)
    span = np.arange(-radius, radius + 1)
    offsets = np.stack(np.meshgrid(*[span] * d, indexing="ij"), axis=-1).reshape(-1, d)
    offsets = offsets[np.abs(offsets).sum(axis=1) <= radius]
    return FiniteDomain._from_cells(offsets + np.array(center), center=center, radius=radius)


def l1_path(a: Point, b: Point, anchor: Point | None = None) -> list[Point]:
    """A unit-step geodesic from ``a`` to ``b`` (length = graph_distance).

    Steps always move one coordinate toward ``b``.  Among the available
    coordinates the one minimizing the distance of the next point to
    ``anchor`` is chosen (ties broken by coordinate index), so when both
    endpoints lie in ``B(anchor, s)`` the whole path stays in ``B(anchor, s)``:
    a step that increases the anchor distance is taken only when every
    remaining coordinate lies strictly between its anchor and target values,
    in which case the current anchor distance is below the endpoint's.
    """
    a, b = as_point(a), as_point(b)
    _require_same_dimension(a, b)
    if anchor is not None:
        anchor = as_point(anchor)
        _require_same_dimension(a, anchor)
    cur = list(a)
    path = [a]
    while tuple(cur) != b:
        best_axis = -1
        best_score = None
        for axis in range(len(b)):
            if cur[axis] == b[axis]:
                continue
            step = 1 if b[axis] > cur[axis] else -1
            if anchor is None:
                score = 0
            else:
                score = abs(cur[axis] + step - anchor[axis]) - abs(cur[axis] - anchor[axis])
            if best_score is None or score < best_score:
                best_score = score
                best_axis = axis
        cur[best_axis] += 1 if b[best_axis] > cur[best_axis] else -1
        path.append(tuple(cur))
    return path


@dataclass(frozen=True)
class BallChain:
    """A chain of equal-radius balls linking two points inside a big ball."""

    centers: tuple[Point, ...]
    small_radius: int
    overlap_points: tuple[Point, ...]

    @property
    def n_balls(self) -> int:
        return len(self.centers)


def build_ball_chain(x0: Iterable[int], R: int, u: Iterable[int], v: Iterable[int]) -> BallChain:
    """Chain of balls of radius ``floor(R/8)`` linking ``u`` to ``v``.

    Requires ``R > 32`` and ``u, v`` in ``B(x0, floor(R/2))``.  Centres are
    placed every ``floor(R/8)`` steps along an l1 geodesic anchored at ``x0``.
    All invariants are verified by direct check before returning:

    * ``u`` in the first ball and ``v`` in the last;
    * consecutive balls share the recorded overlap point;
    * every ``B(center, floor(R/2))`` is contained in ``B(x0, R)``;
    * the number of balls never exceeds :data:`CHAIN_LENGTH_CAP`.
    """
    x0, u, v = as_point(x0), as_point(u), as_point(v)
    _require_same_dimension(x0, u)
    _require_same_dimension(x0, v)
    if R <= 32:
        raise ValueError("ball chains require R > 32")
    half = R // 2
    if graph_distance(x0, u) > half or graph_distance(x0, v) > half:
        raise ValueError("chain endpoints must lie in B(x0, floor(R/2))")
    spacing = R // 8
    path = l1_path(u, v, anchor=x0)
    idx = list(range(0, len(path), spacing))
    if idx[-1] != len(path) - 1:
        idx.append(len(path) - 1)
    centers = tuple(path[i] for i in idx)
    overlaps = []
    for j in range(len(idx) - 1):
        mid = (idx[j] + idx[j + 1] + 1) // 2
        overlaps.append(path[mid])
    chain = BallChain(centers=centers, small_radius=spacing, overlap_points=tuple(overlaps))

    # Direct verification of every chain invariant.
    if graph_distance(u, centers[0]) > spacing or graph_distance(v, centers[-1]) > spacing:
        raise AssertionError("chain endpoints escaped their end balls")
    for j, w in enumerate(overlaps):
        if (
            graph_distance(w, centers[j]) > spacing
            or graph_distance(w, centers[j + 1]) > spacing
        ):
            raise AssertionError("consecutive chain balls do not overlap")
    for z in centers:
        if graph_distance(z, x0) + half > R:
            raise AssertionError("sub-ball of radius floor(R/2) escapes B(x0, R)")
    if chain.n_balls > CHAIN_LENGTH_CAP:
        raise AssertionError("chain length exceeded its fixed cap")
    return chain

