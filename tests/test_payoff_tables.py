"""Property tests of the per-game payoff tables (``StageGame.tables``).

Random 2x2, 2x3 and 3x3 games with payoffs on a 0.1 grid.  Every table
entry must equal the value read directly off the payoff tensor; the
closed-form verdicts that read the tables (for a single-action pattern the
box screen's scalar entry and then its decider) must agree with the
support LP they stand in for; and a solve must not depend on whether the
tables were built before it started.  Examples are derandomised so the suite is
reproducible.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import spegrid as sg  # noqa: E402
from spegrid.finalset import write_final_set  # noqa: E402
from spegrid.feasibility import enumerate_support_patterns  # noqa: E402
from spegrid.solver import (MODES, _build_context, _clip,  # noqa: E402
                            _screen_hull_slices, _screen_mixtures,
                            _screen_pattern, _singleton_cluster_solution,
                            _singleton_correlated_solution)

SHAPES = [(2, 2), (2, 3), (3, 3)]
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=100)


def tenths(lo, hi):
    """Floats on the 0.1 grid in [lo, hi]."""
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10.0)


@st.composite
def games(draw, scale=3.0):
    shape = draw(st.sampled_from(SHAPES))
    size = int(np.prod(shape)) * 2
    values = draw(st.lists(tenths(-scale, scale), min_size=size,
                           max_size=size))
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, np.array(values).reshape(shape + (2,)))


def patterns_of(game):
    return enumerate_support_patterns([game.action_count(i) for i in range(2)])


def opp_profile(i, a, b):
    return (a, b) if i == 0 else (b, a)


def screens_reject(cube, pattern, game, gamma, floor, window, hull=None):
    """Whether the search's screens reject a non-pure pattern; with the
    ``hull`` context of a cube set (and gamma > 0) they run again with the
    window cut to the hull slices."""
    args = (cube.origin, cube.side, pattern, game, gamma, floor)
    if not _screen_pattern(*args, window, hull is not None) \
            or not _screen_mixtures(*args, *window):
        return True
    return hull is not None and gamma > 0.0 \
        and not _screen_hull_slices(*args, window, hull)


@PROPERTY
@given(games())
def test_every_table_entry_matches_the_payoff_tensor(game):
    P = game.payoffs
    tables = game.tables
    assert tables.bounds == sg.PayoffBounds(float(P.min()), float(P.max()))
    profiles = list(itertools.product(*(range(m) for m in P.shape[:2])))
    assert list(tables.point_masses) == profiles
    assert list(tables.pure) == profiles
    assert list(tables.conditional) == profiles
    for p in profiles:
        for i, probs in enumerate(tables.point_masses[p].probs):
            assert probs.tolist() == [float(a == p[i])
                                      for a in range(P.shape[i])]
        r_vals, br_vals = tables.pure[p]
        assert r_vals == (float(P[p][0]), float(P[p][1]))
        assert br_vals == (float(P[:, p[1], 0].max()),
                           float(P[p[0], :, 1].max()))
        assert tables.conditional[p] == (
            tuple(float(P[a, p[1], 0]) for a in range(P.shape[0])),
            tuple(float(P[p[0], a, 1]) for a in range(P.shape[1])))
    patterns = patterns_of(game)
    assert tables.patterns == patterns
    assert len(tables.screens) == len(patterns)
    for pattern in patterns:
        rows = tables.screens[pattern.supports]
        for i in range(2):
            opp_supp = pattern.supports[1 - i]
            for a, (in_supp, v_min, v_max, vals) in enumerate(rows[i]):
                assert vals == tuple(float(P[opp_profile(i, a, b)][i])
                                     for b in opp_supp)
                assert in_supp == (a in pattern.supports[i])
                assert (v_min, v_max) == (min(vals), max(vals))
    assert tables.screen_margin == 1e-7 * (1.0 + float(np.abs(P).max()))


@st.composite
def cluster_scenarios(draw):
    game = draw(games())
    side = draw(tenths(0.1, 1.0))
    cube = sg.Hypercube((draw(tenths(-3.0, 3.0)), draw(tenths(-3.0, 3.0))),
                        side)
    cluster = sg.Cluster((draw(tenths(-3.0, 2.0)), draw(tenths(-3.0, 2.0))),
                         (draw(tenths(0.1, 3.0)), draw(tenths(0.1, 3.0))))
    floor = (draw(tenths(-3.0, 0.0)), draw(tenths(-3.0, 0.0)))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
    return game, cube, cluster, floor, gamma


@PROPERTY
@given(cluster_scenarios())
def test_cluster_deciders_agree_with_the_support_lp(scenario):
    game, cube, cluster, floor, gamma = scenario
    window = _cluster_window(cluster)
    for pattern in patterns_of(game):
        lp = sg.solve_feasibility(sg.mixed_cluster_system(
            cube, cluster, floor, game, gamma, pattern))
        if pattern.pure:
            fast = _screen_pattern(cube.origin, cube.side, pattern, game,
                                   gamma, floor, window, False) \
                and _singleton_cluster_solution(cube.origin, cube.side,
                                                window, floor, game, gamma,
                                                pattern) is not None
            assert fast == (lp is not None)
            continue
        # without hull rows the two screens decide the LP itself: the box
        # screen a player facing one action, the mixture screen the rest
        assert screens_reject(cube, pattern, game, gamma, floor,
                              window) == (lp is None)


@st.composite
def hull_scenarios(draw):
    game = draw(games())
    bounds = game.tables.bounds
    cells = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=6))
    C = sg.CubeSet((bounds.low, bounds.low), max(bounds.spread, 0.5) / 4.0,
                   cells)
    ix = draw(st.sampled_from(sorted(cells)))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
    return game, C, C.cube_at(ix), gamma


@PROPERTY
@given(hull_scenarios())
def test_correlated_deciders_agree_with_the_support_lp(scenario):
    game, C, cube, gamma = scenario
    bounds = game.tables.bounds
    planes = tuple(sg.get_halfplanes(C))
    hull = _build_context(C, hull=True)
    floor = C.min_origin()
    window = _hull_window(C, bounds)
    for pattern in patterns_of(game):
        system = sg.correlated_support_system(cube, planes, floor, bounds,
                                              game, gamma, pattern)
        lp = sg.solve_feasibility(system)
        if pattern.pure:
            fast = _screen_pattern(cube.origin, cube.side, pattern, game,
                                   gamma, floor, window, True) \
                and _singleton_correlated_solution(
                    cube.origin, cube.side, planes, floor, bounds, game,
                    gamma, pattern) is not None
            if fast != (lp is not None):
                # only hairline cases on the feasibility boundary
                assert not fast and system.residual(lp) <= 1e-7
            continue
        rejected = screens_reject(cube, pattern, game, gamma, floor, window,
                                  hull)
        if min(map(len, pattern.supports)) == 1:
            # with a pure player the screens with the cut window decide
            # the hull LP, as the screens alone decide the cluster LP
            assert rejected == (lp is None)
        elif rejected:
            assert lp is None


# Offsets that put a scenario just inside or just outside one utility row,
# around the simplex's 1e-7 feasibility tolerance.
JITTERS = [sign * k * 1e-7 for k in (0.5, 1.0, 1.5, 3.0) for sign in (-1, 1)]


@st.composite
def boundary_scenarios(draw):
    """A non-pure pattern, a mixture over it and a cube placed so that one
    utility row of one player is tight at that mixture, up to a jitter.

    The region is a cluster box or the hull of a few cubes; the row is the
    upper or lower in-support row or an out-of-support row.  Payoffs reach
    +-20, so the slack the simplex allows in sum(alpha) = 1 weighs up to
    twenty times the tolerance in a utility row.  A third of the scenarios
    are hull-tight instead (``hull_tight_scenarios``)."""
    if draw(st.integers(0, 2)) == 0:
        return draw(hull_tight_scenarios())
    game = draw(games(scale=20.0))
    pattern = draw(st.sampled_from([p for p in patterns_of(game)
                                    if not p.pure]))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
    mixture = []
    for supp in pattern.supports:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(supp),
                                max_size=len(supp)).filter(any))
        mixture.append({a: w / sum(weights) for a, w in zip(supp, weights)})
    bounds = game.tables.bounds
    if draw(st.booleans()):
        cluster = sg.Cluster((draw(tenths(-20.0, 15.0)),
                              draw(tenths(-20.0, 15.0))),
                             (draw(tenths(0.1, 5.0)), draw(tenths(0.1, 5.0))))
        window = _cluster_window(cluster)
        region = ("cluster", cluster)
    else:
        cells = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             min_size=1, max_size=6))
        C = sg.CubeSet((bounds.low, bounds.low),
                       max(bounds.spread, 0.5) / 4.0, cells)
        window = _hull_window(C, bounds)
        region = ("hull", C)
    floor = tuple(lo - draw(tenths(0.0, 5.0)) for lo in window[0])
    side = draw(tenths(0.1, 5.0))
    target = draw(st.integers(0, 1))
    row = draw(st.sampled_from(["upper", "lower", "out"]))
    jitter = draw(st.sampled_from(JITTERS))
    origin = []
    for i in range(2):
        supp = pattern.supports[i]
        own = [(1.0 - gamma) * sum(q * game.payoff_to(opp_profile(i, a, b), i)
                                   for b, q in mixture[1 - i].items())
               for a in range(game.action_count(i))]
        upper = min(own[a] + gamma * window[1][i] for a in supp)
        lower = max(own[a] + gamma * window[0][i] for a in supp) - side
        out = max((own[a] + gamma * floor[i]
                   for a in range(len(own)) if a not in supp), default=None)
        if out is not None:
            lower = max(lower, out)
        if i != target:
            origin.append((lower + upper) / 2.0 if lower <= upper else upper)
        elif row == "out" and out is not None:
            origin.append(out - jitter)
        elif row == "lower":
            origin.append(lower - jitter)
        else:
            origin.append(upper + jitter)
    return game, pattern, gamma, sg.Hypercube(tuple(origin), side), floor, \
        window, region


@st.composite
def hull_tight_scenarios(draw):
    """A pattern with one pure player p (action b) and a hull whose boundary
    point q, a vertex or an edge's midpoint, carries the continuations.

    The cube puts one edge of the slab of one of m's actions (the interval
    p's cut reads off m's utility row against b; m is the other player) at
    q_m, and every other slab of m contains q_m.  Then either that slab
    edge moves outward by a jitter, with q on the hull's extreme edge along
    m's axis, so the slab just touches or just misses the hull; or p's row
    is tight, up to a jitter, at an end of p's sliced window, computed here
    by clipping the hull.  The row is tight at the mixture of m that suits
    it best, a point mass on m's best action for it: at any other the LP
    could move the mixture.  Payoffs of +-0.1 keep the screens' margin
    below the cut's widening; payoffs of +-20 let the simplex's slack in
    sum(alpha) = 1 weigh in."""
    game = draw(games(scale=draw(st.sampled_from([0.1, 20.0]))))
    pattern = draw(st.sampled_from([
        pt for pt in patterns_of(game)
        if not pt.pure and min(map(len, pt.supports)) == 1]))
    p = 0 if len(pattern.supports[0]) == 1 else 1
    m, b = 1 - p, pattern.supports[p][0]
    gamma = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    bounds = game.tables.bounds
    cells = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=6))
    C = sg.CubeSet((bounds.low, bounds.low), max(bounds.spread, 0.5) / 4.0,
                   cells)
    verts = sg.hull_vertices(C)
    window = _hull_window(C, bounds)
    floor = tuple(lo - draw(tenths(0.0, 5.0)) for lo in window[0])
    own = {a: (1.0 - gamma) * game.payoff_to(opp_profile(m, a, b), m)
           for a in pattern.supports[m]}
    reach = [(1.0 - gamma) * game.payoff_to(opp_profile(p, b, a), p)
             for a in pattern.supports[m]]
    side = max(own.values()) - min(own.values()) + draw(tenths(0.1, 5.0))
    low_edge = draw(st.booleans())
    tight = draw(st.sampled_from(["slab", "window"]))
    jitter = draw(st.sampled_from(JITTERS))
    if tight == "slab":
        # the extreme edge the slab opens away from
        top = (max if low_edge else min)(v[m] for v in verts)
        ends = [v for v in verts if v[m] == top]
        q = draw(st.sampled_from(ends + [tuple((x + y) / 2.0 for x, y in
                                               zip(ends[0], ends[-1]))]))
    else:
        k = draw(st.integers(0, len(verts) - 1))
        t = draw(st.sampled_from([0.0, 0.5]))
        q = tuple(x + t * (y - x) for x, y in
                  zip(verts[k], verts[(k + 1) % len(verts)]))
    # the slab of a_star has its lower (or upper) edge at q_m
    a_star = (min if low_edge else max)(own, key=own.get)
    o_m = own[a_star] + gamma * q[m] - (0.0 if low_edge else side)
    if tight == "slab":
        o_m += jitter if low_edge else -jitter
        o_p = sum(reach) / len(reach) + gamma * q[p] - side / 2.0
    else:
        spans = []
        for a in own:
            lo = (o_m - own[a]) / gamma
            rows = [[-float(d == m) for d in range(2)] + [-lo],
                    [float(d == m) for d in range(2)] + [lo + side / gamma]]
            spans.append([pt[p] for pt in _clip(list(verts), rows, tol=0.0)]
                         or [q[p]])
        if draw(st.booleans()):
            w_hi = min(window[1][p], min(map(max, spans)))
            o_p = max(reach) + gamma * w_hi + jitter
        else:
            w_lo = max(window[0][p], max(map(min, spans)))
            o_p = min(reach) + gamma * w_lo - side - jitter
    origin = (o_m, o_p) if m == 0 else (o_p, o_m)
    return game, pattern, gamma, sg.Hypercube(origin, side), floor, window, \
        ("hull", C)


def _cluster_window(cluster):
    return cluster.origin, tuple(o + ln for o, ln in zip(cluster.origin,
                                                          cluster.lengths))


def _hull_window(C, bounds):
    verts = sg.hull_vertices(C)
    return (tuple(max(min(v[d] for v in verts), bounds.low) for d in range(2)),
            tuple(min(max(v[d] for v in verts), bounds.high) for d in range(2)))


@settings(deadline=None, derandomize=True, database=None, max_examples=2250)
@given(boundary_scenarios())
def test_screens_never_reject_a_pattern_the_lp_accepts(scenario):
    game, pattern, gamma, cube, floor, window, (kind, region) = scenario
    hull = None
    if kind == "cluster":
        system = sg.mixed_cluster_system(cube, region, floor, game, gamma,
                                         pattern)
    else:
        system = sg.correlated_support_system(cube, sg.get_halfplanes(region),
                                              floor, game.tables.bounds, game,
                                              gamma, pattern)
        hull = _build_context(region, hull=True)
    if screens_reject(cube, pattern, game, gamma, floor, window, hull):
        assert sg.solve_feasibility(system) is None


def _solve_bytes(game, config, path):
    snaps = []
    report = sg.solve(game, config, snapshot_callback=snaps.append)
    write_final_set(path, snaps[-1], report.status, report.certificates)
    return report.trace_key(), path.read_bytes()


@settings(deadline=None, derandomize=True, database=None, max_examples=12)
@given(games(), st.sampled_from(MODES), st.sampled_from([0.2, 0.5]))
def test_solve_does_not_depend_on_prebuilt_tables(tmp_path_factory, game,
                                                  mode, gamma):
    config = sg.SolverConfig(gamma=gamma, epsilon=3.0, mode=mode,
                             max_generations=4)
    warm = sg.StageGame(game.actions, game.payoffs)
    tables = warm.tables
    for name in ("bounds", "point_masses", "pure", "conditional", "screens"):
        getattr(tables, name)
    out = tmp_path_factory.mktemp("tables")
    fresh = _solve_bytes(sg.StageGame(game.actions, game.payoffs), config,
                         out / "fresh.txt")
    assert fresh == _solve_bytes(warm, config, out / "warm.txt")
