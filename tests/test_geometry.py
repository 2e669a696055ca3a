import numpy as np
import pytest

import spegrid as sg
from conftest import hull_oracle
from spegrid.geometry import _corner_candidates, hull_box, locate_index
from spegrid.solver import _hull_row


class TestInitialCube:
    def test_prisoners_dilemma_bounds(self, pd):
        C = sg.initial_cube(sg.payoff_bounds(pd), 2)
        assert C.cubes() == [sg.Hypercube((-1.0, -1.0), 4.0)]

    def test_simple_bounds(self):
        C = sg.initial_cube(sg.PayoffBounds(0.0, 2.0), 2)
        assert C.cubes() == [sg.Hypercube((0.0, 0.0), 2.0)]

    def test_degenerate_guard(self):
        C = sg.initial_cube(sg.PayoffBounds(5.0, 5.0), 2)
        assert C.cubes() == [sg.Hypercube((5.0, 5.0), 1.0)]


class TestSplitAll:
    def test_unit_cube_children(self):
        C = sg.split_all(sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)]))
        assert C.side == 0.5
        assert [c.origin for c in C.cubes()] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        assert C.generation == 1

    def test_volume_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cells = {tuple(rng.integers(0, 5, size=2)) for _ in range(6)}
            C = sg.CubeSet((-1.0, -1.0), 0.5, cells)
            assert sg.split_all(C).union_volume() == pytest.approx(
                C.union_volume())

    def test_cardinality(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (3, 1)])
        assert len(sg.split_all(C)) == 8


class TestMinOrigin:
    def test_single(self):
        assert sg.min_origin(sg.CubeSet((0, 0), 1.0, [(0, 0)])) == (0.0, 0.0)

    def test_componentwise(self):
        C = sg.CubeSet((-1.0, 0.0), 1.0, [(1, 0), (0, 2)])
        assert sg.min_origin(C) == (-1.0, 0.0)

    def test_initial_pd(self, pd):
        assert sg.min_origin(sg.initial_cube(sg.payoff_bounds(pd), 2)) == (-1.0, -1.0)

    def test_monotone_under_removals(self):
        rng = np.random.default_rng(7)
        cells = list({tuple(rng.integers(0, 6, size=2)) for _ in range(20)})
        C = sg.CubeSet((0.0, 0.0), 0.25, cells)
        prev = C.min_origin()
        order = sorted(cells)
        rng.shuffle(order)
        for ix in order[:-1]:
            C.remove(ix)
            cur = C.min_origin()
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur
            assert cur == tuple(min(o) for o in
                                zip(*[C.origin_of(i) for i in C.indices()]))

    def test_min_cells_follow_removals(self):
        # the punishment cubes: per dimension the first cell in index
        # order on the lowest layer, cached until the set changes
        rng = np.random.default_rng(11)
        cells = list({tuple(rng.integers(0, 6, size=2)) for _ in range(20)})
        C = sg.CubeSet((0.0, 0.0), 0.25, cells)
        order = sorted(cells)
        rng.shuffle(order)
        for ix in order[:-1]:
            cached = C.min_cells()
            assert C.min_cells() is cached
            assert cached == tuple(
                min(c for c in C.indices()
                    if c[d] == min(c[d] for c in C.indices()))
                for d in range(2))
            C.remove(ix)


class TestClusters:
    def test_stacked_pair(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (0, 1)])
        assert sg.get_clusters(C) == [sg.Cluster((0.0, 0.0), (1.0, 2.0))]

    def test_single_cube_is_its_own_cluster(self):
        C = sg.CubeSet((2.0, 3.0), 0.5, [(0, 0)])
        assert sg.get_clusters(C) == [sg.Cluster((2.0, 3.0), (0.5, 0.5))]

    def test_l_shape(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 0), (0, 1)])
        clusters = sg.get_clusters(C)
        assert len(clusters) == 2
        cells = _cluster_cells(clusters, 1.0)
        assert cells == {(0, 0), (1, 0), (0, 1)}

    def test_cell_multiset_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            cells = {tuple(rng.integers(0, 8, size=2))
                     for _ in range(rng.integers(1, 25))}
            C = sg.CubeSet((-2.0, -2.0), 0.25, cells)
            clusters = sg.get_clusters(C)
            assert len(clusters) <= len(C)
            covered = []
            for cl in clusters:
                ox = round((cl.origin[0] + 2.0) / 0.25)
                oy = round((cl.origin[1] + 2.0) / 0.25)
                nx = round(cl.lengths[0] / 0.25)
                ny = round(cl.lengths[1] / 0.25)
                covered.extend((ox + i, oy + j)
                               for i in range(nx) for j in range(ny))
            assert len(covered) == len(set(covered)) == len(cells)
            assert set(covered) == cells

    def test_deterministic(self):
        cells = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (4, 4)]
        a = sg.get_clusters(sg.CubeSet((0, 0), 1.0, cells))
        b = sg.get_clusters(sg.CubeSet((0, 0), 1.0, list(reversed(cells))))
        assert a == b


def _cluster_cells(clusters, side):
    cells = set()
    for cl in clusters:
        nx = round(cl.lengths[0] / side)
        ny = round(cl.lengths[1] / side)
        ox, oy = round(cl.origin[0] / side), round(cl.origin[1] / side)
        for i in range(nx):
            for j in range(ny):
                cells.add((ox + i, oy + j))
    return cells


class TestHalfplanes:
    def test_unit_cube(self):
        planes = sg.get_halfplanes(sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)]))
        assert len(planes) == 4
        for x, y in [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]:
            assert all(_hull_row(*p, x, y) <= 1e-9 for p in planes)
        assert not all(_hull_row(*p, 1.5, 0.5) <= 1e-9 for p in planes)

    def test_diagonal_pair_hull(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 1)])
        verts = sg.hull_vertices(C)
        expected = hull_oracle([(x + dx, y + dy)
                                for (x, y) in [(0, 0), (1, 1)]
                                for dx in (0, 1) for dy in (0, 1)])
        assert sorted(verts) == [tuple(map(float, v)) for v in expected]
        assert sorted(verts) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                                 (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]

    def test_collinear_row_gives_rectangle(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 0), (2, 0)])
        verts = sg.hull_vertices(C)
        assert sorted(verts) == [(0.0, 0.0), (0.0, 1.0), (3.0, 0.0), (3.0, 1.0)]
        assert len(sg.get_halfplanes(C)) == 4

    def test_every_cube_vertex_satisfies_every_plane(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cells = {tuple(rng.integers(0, 6, size=2))
                     for _ in range(rng.integers(1, 15))}
            C = sg.CubeSet((-1.0, -1.0), 0.5, cells)
            planes = sg.get_halfplanes(C)
            for p in planes:
                assert p.phi ** 2 + p.psi ** 2 == pytest.approx(1.0)
            for ix in C.indices():
                o = C.origin_of(ix)
                for dx in (0, C.side):
                    for dy in (0, C.side):
                        assert all(_hull_row(*p, o[0] + dx, o[1] + dy)
                                   <= 1e-9 for p in planes)

    def test_hull_vertices_are_cube_vertices_and_area_dominates(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            cells = {tuple(rng.integers(0, 5, size=2))
                     for _ in range(rng.integers(1, 12))}
            C = sg.CubeSet((0.0, 0.0), 1.0, cells)
            verts = sg.hull_vertices(C)
            corner_set = {(x + dx, y + dy) for (x, y) in cells
                          for dx in (0, 1) for dy in (0, 1)}
            for v in verts:
                assert (round(v[0]), round(v[1])) in corner_set
            area = 0.0
            for i in range(len(verts)):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % len(verts)]
                area += x1 * y2 - x2 * y1
            assert area / 2.0 >= C.union_volume() - 1e-9

    def test_rejects_other_dimensions(self):
        C = sg.CubeSet((0.0, 0.0, 0.0), 1.0, [(0, 0, 0)])
        with pytest.raises(ValueError):
            sg.get_halfplanes(C)

    def test_hull_is_cached_per_version_and_immutable(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cells = {tuple(rng.integers(0, 6, size=2))
                     for _ in range(rng.integers(2, 15))}
            C = sg.CubeSet((-1.0, -1.0), 0.5, cells)
            while len(C) > 1:
                verts = sg.hull_vertices(C)
                assert sg.hull_vertices(C) is verts
                assert isinstance(verts, tuple)
                assert all(isinstance(v, tuple) for v in verts)
                fresh = sg.CubeSet(C.base, C.side, C.indices())
                assert verts == sg.hull_vertices(fresh)
                assert sg.get_halfplanes(C) == sg.get_halfplanes(fresh)
                C.remove(C.indices()[rng.integers(len(C))])


def _oracle_corner_candidates(cube_set):
    # Per lattice line x = X, the lowest and highest cube corner, found by
    # sorting every corner of every cell (the candidate rule the column
    # extremes replace).
    cells = np.array(cube_set.indices(), dtype=np.int64)
    xs = np.concatenate([cells[:, 0], cells[:, 0] + 1,
                         cells[:, 0], cells[:, 0] + 1])
    ys = np.concatenate([cells[:, 1], cells[:, 1],
                         cells[:, 1] + 1, cells[:, 1] + 1])
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    uniq, starts = np.unique(xs, return_index=True)
    pts = []
    for i, x in enumerate(uniq):
        lo = starts[i]
        hi = starts[i + 1] if i + 1 < len(starts) else len(xs)
        pts.append((int(x), int(ys[lo])))
        if ys[hi - 1] != ys[lo]:
            pts.append((int(x), int(ys[hi - 1])))
    return sorted(set(pts))


def _oracle_columns(cube_set):
    cols = {}
    for x, y in cube_set.indices():
        cols.setdefault(x, []).append(y)
    return {x: [min(ys), max(ys)] for x, ys in cols.items()}


def _removal_orders(cells, rng):
    """A shuffled order, and one that empties whole columns first."""
    shuffled = sorted(cells)
    rng.shuffle(shuffled)
    by_column = sorted(cells)
    columns = sorted({x for x, _ in cells})
    rng.shuffle(columns)
    rank = {x: r for r, x in enumerate(columns)}
    by_column.sort(key=lambda c: (rank[c[0]], rng.random()))
    return [shuffled, by_column]


class TestColumnExtremes:
    """The column extremes and the hull cached from them, checked after every
    removal against a fresh set and the corner-sorting oracle."""

    @staticmethod
    def _sets(rng):
        yield sg.CubeSet((0.0, 0.0), 1.0, [(3, y) for y in range(-2, 9)])
        yield sg.CubeSet((0.0, 0.0), 1.0, [(x, 5) for x in range(-4, 7)])
        yield sg.CubeSet((-1.0, 2.0), 0.5, [(2, 0), (2, 3), (2, 7), (2, 8)])
        for _ in range(6):
            cells = {tuple(int(k) for k in rng.integers(-3, 7, size=2))
                     for _ in range(rng.integers(2, 40))}
            C = sg.CubeSet((-1.0, -1.0), 0.25, cells)
            split = sg.split_all(C)
            for ix in split.indices()[::3][:len(split) - 1]:
                split.remove(ix)
            yield from (C, split.copy(), sg.split_all(split))

    def _check(self, C):
        fresh = sg.CubeSet(C.base, C.side, C.indices())
        assert C._columns == fresh._columns == _oracle_columns(C)
        # per line in order, its lowest and its highest corner
        lows, highs = _corner_candidates(C)
        assert [x for x, _ in lows] == [x for x, _ in highs]
        assert all(lo < hi for (_, lo), (_, hi) in zip(lows, highs))
        assert sorted(lows + highs) == _oracle_corner_candidates(C)
        assert (lows, highs) == _corner_candidates(fresh)
        assert sg.hull_vertices(C) == sg.hull_vertices(fresh)
        assert sg.get_halfplanes(C) == sg.get_halfplanes(fresh)
        assert hull_box(C) == hull_box(fresh)

    def test_random_removals_match_a_fresh_set_and_the_oracle(self):
        rng = np.random.default_rng(20)
        kept = moved = 0
        for C in self._sets(rng):
            # the first order runs on a copy, the second on the set itself
            for D, order in zip((C.copy(), C),
                                _removal_orders(C.indices(), rng)):
                self._check(D)
                for ix in order[:-1]:
                    before = _oracle_corner_candidates(D)
                    verts = sg.hull_vertices(D)
                    D.remove(ix)
                    after = _oracle_corner_candidates(D)
                    # the hull is kept exactly when no corner candidate moved
                    assert (sg.hull_vertices(D) is verts) == (before == after)
                    kept += before == after
                    moved += before != after
                    self._check(D)
        assert kept > 500 and moved > 500

    def test_hull_is_the_full_chain_over_every_corner(self):
        # Andrew's monotone chain over all corners of all cells, not only
        # the per-line extremes the set's hull reads
        def full_chain(cells):
            pts = sorted({(x + dx, y + dy) for x, y in cells
                          for dx in (0, 1) for dy in (0, 1)})

            def cross(o, a, b):
                return (a[0] - o[0]) * (b[1] - o[1]) \
                    - (a[1] - o[1]) * (b[0] - o[0])

            def half(points):
                chain = []
                for p in points:
                    while len(chain) >= 2 \
                            and cross(chain[-2], chain[-1], p) <= 0:
                        chain.pop()
                    chain.append(p)
                return chain[:-1]
            return half(pts) + half(pts[::-1])

        rng = np.random.default_rng(23)
        checked = 0
        for C in self._sets(rng):
            for ix in _removal_orders(C.indices(), rng)[0][:-1]:
                ipts = full_chain(C.indices())
                assert sg.hull_vertices(C) == tuple(
                    (C.base[0] + x * C.side, C.base[1] + y * C.side)
                    for x, y in ipts)
                C.remove(ix)
                checked += 1
        assert checked > 500

    def test_other_dimensions_keep_no_columns(self):
        C = sg.CubeSet((0.0, 0.0, 0.0), 1.0, [(0, 0, 0), (0, 0, 1)])
        C.remove((0, 0, 1))
        assert C._columns is None
        assert sg.CubeSet((0.0,), 1.0, [(0,), (1,)])._columns is None


class TestLocate:
    def test_interior_point(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        assert sg.locate((0.5, 0.5), C) == sg.Hypercube((0.0, 0.0), 1.0)

    def test_shared_face_breaks_to_smaller_origin(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 0)])
        assert sg.locate((1.0, 0.5), C).origin == (0.0, 0.0)

    def test_outside(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        assert sg.locate((9.0, 9.0), C) is None

    def test_tolerance(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        assert sg.locate((1.0 + 1e-8, 0.5), C) is None
        assert sg.locate((1.0 + 1e-8, 0.5), C, tol=1e-6) is not None

    @pytest.mark.parametrize("point", [(np.inf, 0.5), (0.5, -np.inf),
                                       (np.nan, 0.5)])
    def test_non_finite_point_lies_in_no_cube(self, pd, point):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        assert sg.locate(point, C, tol=1e-9) is None
        with pytest.raises(ValueError, match="lies outside the union"):
            sg.extract_automaton(C, {}, point, pd)


    @pytest.mark.parametrize("point", [(0.5, 0.5, 99.0), (0.5,), ()])
    def test_point_of_another_dimension_lies_in_no_cube(self, point):
        # the parent zipped the point with the base: (0.5, 0.5, 99.0) was
        # located at (0.5, 0.5)
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        assert sg.locate(point, C, tol=1e-9) is None
        assert locate_index(point, C, tol=1e-9) is None

    def test_the_index_is_the_located_cube(self):
        C = sg.CubeSet((-1.0, 0.5), 0.25, [(0, 0), (1, 0), (3, 2)])
        for point in [(-0.9, 0.6), (-0.75, 0.55), (-0.2, 1.1), (5.0, 0.0)]:
            ix = locate_index(point, C)
            cube = sg.locate(point, C)
            assert cube == (None if ix is None else C.cube_at(ix))


@pytest.mark.parametrize("base,side", [((0.0, 0.0), np.nan),
                                       ((0.0, 0.0), np.inf),
                                       ((0.0, 0.0), -1.0),
                                       ((np.nan, 0.0), 1.0),
                                       ((0.0, -np.inf), 1.0)])
def test_cube_set_needs_a_finite_lattice(base, side):
    with pytest.raises(ValueError, match="base and side must be finite"):
        sg.CubeSet(base, side, [])


class TestLatticeDiscipline:
    def test_split_and_remove_keep_alignment(self):
        rng = np.random.default_rng(19)
        C = sg.initial_cube(sg.PayoffBounds(-1.0, 3.0), 2)
        for _ in range(4):
            C = sg.split_all(C)
            doomed = [ix for ix in C.indices() if rng.random() < 0.3]
            for ix in doomed[:len(C) - 1]:
                C.remove(ix)
            # all origins reproducible from integer indices, boxes disjoint
            seen = set()
            for ix in C.indices():
                assert ix not in seen
                seen.add(ix)
                o = C.origin_of(ix)
                assert o == tuple(-1.0 + k * C.side for k in ix)
