"""Cube-union geometry for candidate payoff sets.

The candidate set W is a union of axis-aligned hypercubes that all share
one side length and sit on a common lattice.  Cubes are stored by integer
lattice index so that repeated halving never desynchronises adjacency:
an index vector k and the set's base b and side l define the cube
[b + k*l, b + (k+1)*l] exactly.

CubeSet is mutated (removal, splitting) only between solver phases; the
read-only queries here are safe to call concurrently on a fixed set.  The
set is the one owner of its derived geometry.  It caches its sorted indices
until the next removal.  A planar set also keeps, per lattice column (first
index), its lowest and highest row; the hull (vertices, half-planes and
bounding box) is built from those column extremes and cached until a
removal moves one of them.  A removal inside a column leaves every hull
candidate, and so the hull, unchanged.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .game import PayoffBounds


class Hypercube(NamedTuple):
    """A closed axis-aligned cube: origin corner plus uniform side length."""

    origin: tuple[float, ...]
    side: float

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(o + self.side / 2.0 for o in self.origin)

    def contains(self, point, tol: float = 0.0) -> bool:
        return all(o - tol <= p <= o + self.side + tol
                   for o, p in zip(self.origin, point))


class Cluster(NamedTuple):
    """An axis-aligned hyperrectangle made of whole lattice cells."""

    origin: tuple[float, ...]
    lengths: tuple[float, ...]

    def contains(self, point, tol: float = 0.0) -> bool:
        return all(o - tol <= p <= o + ln + tol
                   for o, ln, p in zip(self.origin, self.lengths, point))


class HalfPlane(NamedTuple):
    """The constraint phi*x + psi*y <= lam, with (phi, psi) of unit length."""

    phi: float
    psi: float
    lam: float

    def holds(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return self.phi * x + self.psi * y <= self.lam + tol


class CubeSet:
    """A set of same-side cubes on the lattice base + side * Z^n.

    Iteration order is lexicographic by origin (equivalently by index),
    so every pass over a CubeSet is deterministic.
    """

    def __init__(self, base, side: float, indices: Iterable[tuple[int, ...]],
                 generation: int = 0):
        if side <= 0:
            raise ValueError("side must be positive")
        self.base = tuple(float(b) for b in base)
        self.side = float(side)
        self.generation = int(generation)
        self._cells: set[tuple[int, ...]] = set(tuple(int(i) for i in ix)
                                                for ix in indices)
        self._sorted: Optional[list[tuple[int, ...]]] = None
        self._drop_hull()
        self.version = 0  # bumped on every mutation; lets callers cache queries
        self._rebuild_min_counters()
        self._rebuild_columns()

    # -- bookkeeping -------------------------------------------------------

    def _rebuild_min_counters(self):
        n = self.dimension
        self._counts = [Counter(ix[d] for ix in self._cells) for d in range(n)]
        self._mins = [min(c.keys()) if c else 0 for c in self._counts]

    def _rebuild_columns(self):
        # Planar sets only: column x -> [lowest row, highest row] of its cells.
        self._columns: Optional[dict[int, list[int]]] = None
        if self.dimension != 2:
            return
        self._columns = {}
        for x, y in self._cells:
            col = self._columns.get(x)
            if col is None:
                self._columns[x] = [y, y]
            elif y < col[0]:
                col[0] = y
            elif y > col[1]:
                col[1] = y

    def _drop_hull(self):
        # vertices, half-planes and bounding box, each derived on first use
        self._hull = self._halfplanes = self._hull_box = None

    @property
    def dimension(self) -> int:
        return len(self.base)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, index) -> bool:
        return tuple(index) in self._cells

    def indices(self) -> list[tuple[int, ...]]:
        """Sorted lattice indices (cached until the set changes)."""
        if self._sorted is None:
            self._sorted = sorted(self._cells)
        return self._sorted

    def __iter__(self):
        return (self.cube_at(ix) for ix in self.indices())

    def cubes(self) -> list[Hypercube]:
        return [self.cube_at(ix) for ix in self.indices()]

    def origin_of(self, index) -> tuple[float, ...]:
        return tuple(b + k * self.side for b, k in zip(self.base, index))

    def index_of(self, origin) -> tuple[int, ...]:
        """Lattice index of the cube with this origin (inverse of origin_of,
        tolerant of the rounding in stored or parsed origins)."""
        return tuple(round((o - b) / self.side)
                     for o, b in zip(origin, self.base))

    def cube_at(self, index) -> Hypercube:
        return Hypercube(self.origin_of(index), self.side)

    def remove(self, index) -> None:
        ix = tuple(index)
        self._cells.remove(ix)
        self._sorted = None
        self.version += 1
        if self._columns is not None and self._column_extreme_moved(ix):
            self._drop_hull()
        for d, k in enumerate(ix):
            self._counts[d][k] -= 1
            if self._counts[d][k] <= 0:
                del self._counts[d][k]
                if k == self._mins[d] and self._counts[d]:
                    m = k
                    while m not in self._counts[d]:
                        m += 1
                    self._mins[d] = m

    def _column_extreme_moved(self, removed) -> bool:
        # Update the extremes of the removed cell's column; rescan the column
        # only when its lowest or highest cell went, drop it once empty.
        x, y = removed
        col = self._columns[x]
        lo, hi = col
        if lo < y < hi:
            return False
        if lo == hi:
            del self._columns[x]
        elif y == lo:
            lo += 1
            while (x, lo) not in self._cells:
                lo += 1
            col[0] = lo
        else:
            hi -= 1
            while (x, hi) not in self._cells:
                hi -= 1
            col[1] = hi
        return True

    def min_origin(self) -> tuple[float, ...]:
        """Per-dimension minimum of cube origins (the punishment floor)."""
        if not self._cells:
            raise ValueError("empty cube set has no minimum origin")
        return tuple(b + m * self.side
                     for b, m in zip(self.base, self._mins))

    def union_volume(self) -> float:
        return len(self._cells) * self.side ** self.dimension

    def copy(self) -> "CubeSet":
        return CubeSet(self.base, self.side, self._cells, self.generation)


def initial_cube(bounds: PayoffBounds, player_count: int) -> CubeSet:
    """The single starting cube spanning all payoffs: origin at the payoff
    minimum in every dimension, side equal to the payoff spread (side 1 as a
    degenerate guard when the spread is zero)."""
    side = bounds.spread if bounds.spread > 0 else 1.0
    base = (bounds.low,) * player_count
    return CubeSet(base, side, [(0,) * player_count], generation=0)


def split_all(cube_set: CubeSet) -> CubeSet:
    """Replace each cube by its 2^n children of half the side; the union is
    unchanged and the generation counter advances."""
    if len(cube_set) == 0:
        raise ValueError("cannot split an empty cube set")
    n = cube_set.dimension
    children = set()
    for ix in cube_set._cells:
        for offs in itertools.product((0, 1), repeat=n):
            children.add(tuple(2 * k + o for k, o in zip(ix, offs)))
    return CubeSet(cube_set.base, cube_set.side / 2.0, children,
                   generation=cube_set.generation + 1)


def min_origin(cube_set: CubeSet) -> tuple[float, ...]:
    return cube_set.min_origin()


def get_clusters(cube_set: CubeSet) -> list[Cluster]:
    """Greedy clusterization of the cube union into hyperrectangles.

    Cells are scanned in lexicographic order; each cluster grows a maximal
    run along dimension 1, then the resulting strip is extended along each
    later dimension while every cell of the widened block is present.  The
    clusters cover exactly the cells of the set, with no overlap.
    """
    n = cube_set.dimension
    side = cube_set.side
    cells = cube_set.indices()
    present = cube_set._cells
    covered: set[tuple[int, ...]] = set()
    clusters: list[Cluster] = []
    for cell in cells:
        if cell in covered:
            continue
        lens = [1] * n

        def block_free(d: int, layer: int) -> bool:
            # is the slab at offset `layer` along dim d fully present and free
            ranges = [range(lens[k]) for k in range(n)]
            ranges[d] = range(layer, layer + 1)
            for offs in itertools.product(*ranges):
                c = tuple(cell[k] + offs[k] for k in range(n))
                if c not in present or c in covered:
                    return False
            return True

        for d in range(n):
            while block_free(d, lens[d]):
                lens[d] += 1
        for offs in itertools.product(*(range(l) for l in lens)):
            covered.add(tuple(cell[k] + offs[k] for k in range(n)))
        clusters.append(Cluster(cube_set.origin_of(cell),
                                tuple(l * side for l in lens)))
    return clusters


def _corner_candidates(cube_set: CubeSet) -> list[tuple[int, int]]:
    # Hull candidates, sorted: the lowest and highest cube corner on each
    # lattice line x = X.  Those corners belong to the cells of columns X-1
    # and X, so they follow from the two columns' extremes.
    cols = cube_set._columns
    pts = []
    for X in sorted({*cols, *(x + 1 for x in cols)}):
        ext = [cols[x] for x in (X - 1, X) if x in cols]
        pts.append((X, min(lo for lo, _ in ext)))
        pts.append((X, max(hi for _, hi in ext) + 1))
    return pts


def _monotone_chain(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # Andrew's monotone chain on exact integer points; collinear points are
    # dropped, output is counter-clockwise starting at the lexicographic min.
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if len(points) <= 2:
        return list(points)
    lower = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_vertices(cube_set: CubeSet) -> tuple[tuple[float, float], ...]:
    """Vertices of the convex hull of all cube corners, counter-clockwise
    starting at the lexicographically smallest vertex.  Two-player only.

    Cached on the set until a removal moves a column extreme."""
    if cube_set.dimension != 2:
        raise ValueError("convex hulls are only supported in two dimensions")
    if len(cube_set) == 0:
        raise ValueError("empty cube set has no hull")
    if cube_set._hull is None:
        ipts = _monotone_chain(_corner_candidates(cube_set))
        base, side = cube_set.base, cube_set.side
        cube_set._hull = tuple((base[0] + x * side, base[1] + y * side)
                               for x, y in ipts)
    return cube_set._hull


def hull_box(cube_set: CubeSet) -> tuple[tuple[float, float],
                                          tuple[float, float]]:
    """Bounding box (lower corner, upper corner) of the hull vertices,
    cached beside them."""
    if cube_set._hull_box is None:
        xs, ys = zip(*hull_vertices(cube_set))
        cube_set._hull_box = ((min(xs), min(ys)), (max(xs), max(ys)))
    return cube_set._hull_box


def get_halfplanes(cube_set: CubeSet) -> tuple[HalfPlane, ...]:
    """Half-plane representation of the convex hull of the cube union.

    Every cube vertex satisfies every returned half-plane to within 1e-9.
    Degenerate single-point hulls cannot occur because cubes have positive
    side, so the hull always has at least four edges.  Cached beside the
    hull vertices.
    """
    if cube_set._halfplanes is None:
        verts = hull_vertices(cube_set)
        planes = []
        m = len(verts)
        for i in range(m):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % m]
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                continue
            phi, psi = dy / norm, -dx / norm  # outward normal of a CCW edge
            planes.append(HalfPlane(phi, psi, phi * x1 + psi * y1))
        cube_set._halfplanes = tuple(planes)
    return cube_set._halfplanes


def locate(point, cube_set: CubeSet, tol: float = 0.0) -> Optional[Hypercube]:
    """The cube whose closed box contains the point, or None.

    A point on a shared face belongs to several closed cubes; the tie goes
    to the cube with the lexicographically smallest origin.
    """
    side = cube_set.side
    per_dim = []
    for p, b in zip(point, cube_set.base):
        t = (p - b) / side
        k0 = math.floor(t)
        ks = [k for k in (k0 - 1, k0, k0 + 1)
              if k * side - tol <= p - b <= (k + 1) * side + tol]
        if not ks:
            return None
        per_dim.append(ks)
    for ix in itertools.product(*per_dim):  # product of sorted lists is sorted
        if ix in cube_set._cells:
            return cube_set.cube_at(ix)
    return None
