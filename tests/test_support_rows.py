"""Property tests of the support-row functions and of the deciders that
call them.

Each row of the support program is one function in ``spegrid.solver``
that the scalar deciders, the frozen pass's mask and both replays call, on
Python floats or on float64 arrays.  The functions must give the same bits
either way; and every witness a closed-form decider builds for a pattern
the box screen passes must replay, since both test a row by the same value
against FEAS_TOL.  Random 2x2, 2x3 and 3x3 games on a 0.1 grid, the
clusters or the hull of a random union, and cubes with, per player, one row
tight up to a jitter of +-{0.5, 1, 1.5} tolerances.  Examples are
derandomised so the suite is reproducible.  The last tests read the
source of the solver and of extraction: each row's expression is written
once, and the screens take no tolerance and fold no two rows into one.
"""

import ast
import inspect
import re
import textwrap
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import spegrid as sg  # noqa: E402
import spegrid.automaton as automaton  # noqa: E402
import spegrid.solver as solver  # noqa: E402
from spegrid.feasibility import (FEAS_TOL,  # noqa: E402
                                 enumerate_support_patterns)
from spegrid.solver import (SupportCertificate, _above,  # noqa: E402
                            _below, _build_context, _cluster_box,
                            _continuation, _deviation, _hull_row,
                            _hull_window, _pure_witness, _screen_pattern,
                            _screen_support, _singleton_cluster_solution,
                            _singleton_correlated_solution, _utility)
from conftest import scalar_residual  # noqa: E402

SHAPES = [(2, 2), (2, 3), (3, 3)]
JITTERS = [sign * k for k in (0.5, 1.0, 1.5) for sign in (-1, 1)]
GAMMAS = [0.0, 0.3, 0.7, 0.9]
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=500)


def tenths(lo, hi):
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10.0)


def operands():
    """A 0.1 grid value, jittered by up to 1.5e-7, or -0.0."""
    jittered = st.tuples(tenths(-3.0, 3.0),
                         st.sampled_from([0.0] + JITTERS)).map(
        lambda t: t[0] + t[1] * FEAS_TOL)
    return st.one_of(jittered, st.just(-0.0))


ROWS = [  # (row function, operand count, its gammas or None)
    (_utility, 2, GAMMAS),
    (_continuation, 2, GAMMAS[1:]),
    (_deviation, 3, GAMMAS),
    (_below, 2, None),
    (_above, 3, None),
    (_hull_row, 5, None),
]


@PROPERTY
@given(st.data())
def test_rows_give_the_same_bits_on_floats_and_arrays(data):
    for row, count, gammas in ROWS:
        columns = [data.draw(st.lists(operands(), min_size=8, max_size=8))
                   for _ in range(count)]
        extra = () if gammas is None else (data.draw(st.sampled_from(gammas)),)
        batch = row(*(np.array(c) for c in columns), *extra)
        for k, args in enumerate(zip(*columns)):
            assert float(batch[k]).hex() == row(*args, *extra).hex(), \
                (row.__name__, args, extra)


@st.composite
def games(draw):
    shape = draw(st.sampled_from(SHAPES))
    size = int(np.prod(shape)) * 2
    values = draw(st.lists(tenths(-3.0, 3.0), min_size=size, max_size=size))
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, np.array(values).reshape(shape + (2,)))


@st.composite
def decider_cases(draw):
    """A game, gamma, the context of a random union (clusters or hull), a
    pure profile, and a cube that puts, per player, the profile's tightest
    row at its flip up to a jitter of FEAS_TOL or, for the hull's
    continuation interval, gamma * FEAS_TOL.  With the payoff r of the
    profile and a window [lo, hi] (a cluster box, the hull's window or the
    payoff box) the origin o must lie in [A, B]: B = g1 r + g hi, and A the
    largest of g1 r + g lo - side, an out-of-support payoff's utility at
    the floor, and the best deviation's less the side (pure back-end)."""
    game = draw(games())
    gamma = draw(st.sampled_from(GAMMAS))
    bounds = game.tables.bounds
    cells = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=6))
    union = sg.CubeSet((bounds.low, bounds.low),
                       max(bounds.spread, 0.5) / 4.0, cells)
    ctx = _build_context(union, hull=draw(st.booleans()))
    windows = ([_hull_window(ctx, bounds)] if ctx.halfplanes is not None
               else [_cluster_box(cl) for cl in ctx.clusters])
    window = draw(st.sampled_from(
        windows + [((bounds.low,) * 2, (bounds.high,) * 2)]))
    profile = draw(st.sampled_from(list(game.profiles())))
    side = draw(tenths(0.1, 1.0))
    origin = []
    for i in range(2):
        others = [game.payoff_to(profile[:i] + (a,) + profile[i + 1:], i)
                  for a in range(game.action_count(i)) if a != profile[i]]
        r, br = (payoffs[i] for payoffs in game.tables.pure[profile])
        lows = [_utility(r, window[0][i], gamma) - side,
                _utility(br, ctx.w_floor[i], gamma) - side]
        lows += [_utility(q, ctx.w_floor[i], gamma) for q in others]
        edge = draw(st.sampled_from([max(lows),
                                     _utility(r, window[1][i], gamma)]))
        tol = draw(st.sampled_from([FEAS_TOL, gamma * FEAS_TOL]))
        origin.append(edge + draw(st.sampled_from([0.0] + JITTERS)) * tol)
    return game, gamma, ctx, tuple(origin), side


def singleton_patterns(game):
    return [p for p in enumerate_support_patterns(
        [game.action_count(i) for i in range(2)]) if p.pure]


def witnesses(game, gamma, ctx, origin, side):
    """Every witness the closed-form deciders build for the cube, for the
    singletons the box screen passes in the region's window (a search's
    verdict is that screen's and the decider's), as a certificate with the
    region its replay reads."""
    floor = ctx.w_floor
    if ctx.halfplanes is not None:
        window = _hull_window(ctx, game.tables.bounds)
        for pattern in singleton_patterns(game):
            if not _screen_pattern(origin, side, pattern, game, gamma, floor,
                                   window, hull=True):
                continue
            sol = _singleton_correlated_solution(
                origin, side, ctx.halfplanes, floor, game.tables.bounds, game,
                gamma, pattern)
            if sol is not None:
                yield SupportCertificate("correlated", floor, solution=sol), \
                    ctx.halfplanes
        return
    for cluster in ctx.clusters:
        for profile, (r_vals, br_vals) in game.tables.pure.items():
            cert = _pure_witness(origin, side, cluster, floor, game, gamma,
                                 profile, r_vals, br_vals)
            if cert is not None:
                yield cert, [cluster]
        for pattern in singleton_patterns(game):
            if not _screen_pattern(origin, side, pattern, game, gamma, floor,
                                   _cluster_box(cluster), hull=False):
                continue
            sol = _singleton_cluster_solution(origin, side,
                                              _cluster_box(cluster), floor,
                                              game, gamma, pattern)
            if sol is not None:
                yield SupportCertificate("mixed", floor, solution=sol), \
                    [cluster]


@PROPERTY
@given(decider_cases())
def test_every_accepted_witness_replays(case):
    game, gamma, ctx, origin, side = case
    for cert, region in witnesses(game, gamma, ctx, origin, side):
        residual = scalar_residual(cert, game, gamma, origin, side,
                                   ctx.w_floor, region)
        assert residual <= FEAS_TOL, (cert.kind, residual)


@st.composite
def interval_cases(draw):
    """A game, gamma near or far from 1, a pure profile and a cube that
    puts, per player, one in-support row of the payoff box at its flip up
    to a jitter of +-{0.5, 1, 1.5} * 1e-7: the row through the box's top
    (origin = g1 r + g high) or its bottom (origin = g1 r + g low - side)."""
    game = draw(games())
    gamma = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9, 0.99]))
    bounds = game.tables.bounds
    pattern = draw(st.sampled_from(singleton_patterns(game)))
    profile = tuple(s[0] for s in pattern.supports)
    side = draw(tenths(0.1, 1.0))
    origin = []
    for i in range(2):
        r = game.payoff_to(profile, i)
        edge = draw(st.sampled_from([_utility(r, bounds.high, gamma),
                                     _utility(r, bounds.low, gamma) - side]))
        origin.append(edge + draw(st.sampled_from(JITTERS)) * FEAS_TOL)
    floor = (draw(tenths(bounds.low, bounds.high)),) * 2
    return game, gamma, pattern, tuple(origin), side, floor


def test_the_hull_interval_rejects_where_a_payoff_box_row_does():
    # For the hull (gamma > 0) a singleton's in-support rows are its
    # continuation interval in the payoff box.  Where a window row of that
    # box rejects, o - (g1 r + g high) > FEAS_TOL or (g1 r + g low) -
    # (o + side) > FEAS_TOL, the interval is emptier by FEAS_TOL / gamma, so
    # it rejects too: the interval rows move no verdict the window rows make.
    rejects = []

    @PROPERTY
    @given(interval_cases())
    def check(case):
        game, gamma, pattern, origin, side, floor = case
        bounds = game.tables.bounds
        box = ((bounds.low,) * 2, (bounds.high,) * 2)
        args = (origin, side, pattern, game, gamma, box)
        if not _screen_support(*args, hull=False):
            rejects.append(gamma)
            assert not _screen_support(*args, hull=True)

    check()
    # rows reject at every gamma, or the implication holds vacuously
    assert set(rejects) == {0.3, 0.5, 0.7, 0.9, 0.99}, rejects


def whole_box(lo, hi, rows):
    return [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]


def test_the_hull_singleton_decider_only_builds_witnesses():
    # The box screen holds the continuation interval, so with the clip
    # keeping the whole box the decider builds a witness for every point
    # mass, on cubes that put its interval at an edge of the payoff box,
    # whatever the screen's verdict.
    verdicts = set()

    @PROPERTY
    @given(interval_cases())
    def check(case):
        game, gamma, _, origin, side, floor = case
        bounds = game.tables.bounds
        window = ((bounds.low,) * 2, (bounds.high,) * 2)
        with mock.patch.object(solver, "_clip_box", whole_box):
            for pattern in singleton_patterns(game):
                assert _singleton_correlated_solution(
                    origin, side, (), floor, bounds, game, gamma,
                    pattern) is not None
                verdicts.add(_screen_support(origin, side, pattern, game,
                                             gamma, window, hull=True))

    check()
    # the interval rejects some of these cubes, or the test shows nothing
    assert verdicts == {True, False}


SOURCE = inspect.getsource(solver)
# the row readers: the solver, and extraction's hull membership test
READERS = SOURCE + inspect.getsource(automaton)


def test_each_row_expression_is_written_once():
    # the hull row: phi and psi are multiplied in _hull_row alone, and the
    # one loop that sums a half-plane's products in any dimension is
    # _clip's, which names the row it derives from; extraction tests hull
    # membership by _hull_row, as replay does
    products = [line.strip() for line in READERS.splitlines()
                if re.search(r"\b(phi|psi)\s*\*|\*\s*[\w.]*\b(phi|psi)\b",
                             line)]
    assert products == ["return phi * x + psi * y - lam"]
    assert "_hull_row(" in inspect.getsource(automaton.decompose_into_vertices)
    assert not hasattr(sg.HalfPlane, "holds")
    assert SOURCE.count("row[k] * p[k]") == 1
    clip = inspect.getsource(solver._clip)
    assert "row[k] * p[k]" in clip and "# _hull_row" in clip
    # the utility row's weight, in _utility and _continuation and in the
    # derived forms of the LP template, the mixture screen and the slices
    assert SOURCE.count("1.0 - gamma") <= 5
    # every decision is a row's value against a tolerance, never a
    # comparison with a bound shifted by one
    assert re.search(r"(>|<|<=|>=) [^#=]*[+-] (FEAS_TOL|margin|tol)\b",
                     READERS) is None


SCREENS = [getattr(solver, name) for name in dir(solver)
           if name.startswith("_screen_")]


def test_the_screens_take_no_tolerance_or_row_group():
    # a screen's verdict follows from the cube, the region and the pattern:
    # its tolerance from whether the pattern is a point mass, its rows from
    # the region
    assert {f.__name__ for f in SCREENS} >= {
        "_screen_pattern", "_screen_support", "_screen_mixtures",
        "_screen_hull_slices"}
    for screen in SCREENS:
        params = inspect.signature(screen).parameters
        assert not {"tol", "in_support"} & set(params), screen.__name__


def code_of(function):
    """A function's source without its docstring."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]
    if ast.get_docstring(tree) is not None:
        tree.body = tree.body[1:]
    return ast.unparse(tree)


def test_the_screens_reject_on_row_values_alone():
    # each reject is a row's value against a tolerance: no max or min
    # folds two rows into one, as the old continuation interval did
    mask = code_of(solver._pattern_mask)
    rejects = [code_of(solver._screen_pattern),
               code_of(solver._screen_support),
               mask[mask.index("reject = "):mask.index("~reject")]]
    for source in rejects:
        assert re.search(r"\b(max|min|np\.maximum|np\.minimum)\(",
                         source) is None, source
