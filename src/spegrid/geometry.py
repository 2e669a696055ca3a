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
bounding box) is built from the corner candidates those column extremes
give, and cached until a removal changes a candidate.  A removal inside a
column, or one whose moved extreme a neighbouring column overrides, leaves
every candidate, and so the hull, unchanged.
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


class CubeSet:
    """A set of same-side cubes on the lattice base + side * Z^n.

    Iteration order is lexicographic by origin (equivalently by index),
    so every pass over a CubeSet is deterministic.
    """

    def __init__(self, base, side: float, indices: Iterable[tuple[int, ...]],
                 generation: int = 0):
        self.base = tuple(float(b) for b in base)
        self.side = float(side)
        if not (all(map(math.isfinite, self.base + (self.side,)))
                and self.side > 0.0):
            raise ValueError("base and side must be finite, side positive")
        self.generation = int(generation)
        self._cells: set[tuple[int, ...]] = set(tuple(int(i) for i in ix)
                                                for ix in indices)
        self._sorted: Optional[list[tuple[int, ...]]] = None
        self._min_cells: Optional[tuple] = None
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
        self._sorted = self._min_cells = None
        self.version += 1
        if self._columns is not None and self._hull_candidates_moved(ix):
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

    def _hull_candidates_moved(self, removed) -> bool:
        # Update the extremes of the removed cell's column; rescan the column
        # only when its lowest or highest cell went, drop it once empty.
        # Only the corner candidates on the column's two lines can move.
        x, y = removed
        col = self._columns[x]
        lo, hi = col
        if lo < y < hi:
            return False
        lines = (_line_corners(self._columns, x),
                 _line_corners(self._columns, x + 1))
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
        return lines != (_line_corners(self._columns, x),
                         _line_corners(self._columns, x + 1))

    def min_origin(self) -> tuple[float, ...]:
        """Per-dimension minimum of cube origins (the punishment floor)."""
        if not self._cells:
            raise ValueError("empty cube set has no minimum origin")
        return tuple(b + m * self.side
                     for b, m in zip(self.base, self._mins))

    def min_cells(self) -> tuple[tuple[int, ...], ...]:
        """Per dimension, the first cell in index order on its lowest layer."""
        if self._min_cells is None:
            self._min_cells = tuple(next(ix for ix in self.indices()
                                         if ix[d] == m)
                                    for d, m in enumerate(self._mins))
        return self._min_cells

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


def _line_corners(cols, X) -> Optional[tuple[int, int]]:
    # The lowest and highest cube corner on the lattice line x = X, or None
    # when no cube touches it.  Those corners belong to the cells of columns
    # X-1 and X, so they follow from the two columns' extremes.
    ext = [cols[x] for x in (X - 1, X) if x in cols]
    if not ext:
        return None
    return min(lo for lo, _ in ext), max(hi for _, hi in ext) + 1


def _corner_candidates(cube_set: CubeSet):
    # Per lattice line x = X, in order, the lowest and the highest cube
    # corner (as two lists), in one walk over the columns: column x gives
    # its extremes to lines x and x + 1, and line x takes column x - 1's too.
    lows, highs = [], []
    for x in sorted(cube_set._columns):
        lo, hi = cube_set._columns[x]
        if lows and lows[-1][0] == x:
            lows[-1] = (x, min(lows[-1][1], lo))
            highs[-1] = (x, max(highs[-1][1], hi + 1))
        else:
            lows.append((x, lo))
            highs.append((x, hi + 1))
        lows.append((x + 1, lo))
        highs.append((x + 1, hi + 1))
    return lows, highs


def _monotone_chain(lows, highs) -> list[tuple[int, int]]:
    # Andrew's monotone chain on exact integer points: the lower chain reads
    # only each line's lowest point (and the last line's highest), the upper
    # chain only the highest (and the first line's lowest).  Collinear points
    # are dropped; the output is counter-clockwise from the lexicographic min.
    hull = []
    for points in (lows + highs[-1:], highs[::-1] + lows[:1]):
        chain = []
        for p in points:
            x, y = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull


def hull_vertices(cube_set: CubeSet) -> tuple[tuple[float, float], ...]:
    """Vertices of the convex hull of all cube corners, counter-clockwise
    starting at the lexicographically smallest vertex.  Two-player only.

    Cached on the set until a removal changes a corner candidate."""
    if cube_set.dimension != 2:
        raise ValueError("convex hulls are only supported in two dimensions")
    if len(cube_set) == 0:
        raise ValueError("empty cube set has no hull")
    if cube_set._hull is None:
        ipts = _monotone_chain(*_corner_candidates(cube_set))
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


def locate_index(point, cube_set: CubeSet,
                 tol: float = 0.0) -> Optional[tuple[int, ...]]:
    """Lattice index of the cube whose closed box contains the point, or
    None.

    A point on a shared face belongs to several closed cubes; the tie goes
    to the cube with the lexicographically smallest origin.  A non-finite
    point, or one whose length is not the set's dimension, lies in no cube.
    """
    if len(point) != cube_set.dimension \
            or not all(map(math.isfinite, point)):
        return None
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
            return ix
    return None


def locate(point, cube_set: CubeSet, tol: float = 0.0) -> Optional[Hypercube]:
    """The cube ``locate_index`` finds for the point, or None."""
    ix = locate_index(point, cube_set, tol)
    return None if ix is None else cube_set.cube_at(ix)
