"""Property test of ``_pattern_mask``, the box screen a frozen pass runs
for all its searched cubes at once, and the only one its searches run.

Every entry must be the scalar entry a search without a mask computes for
that (cube, region, pattern), one call of ``_screen_pattern``: in the
region's window, at FEAS_TOL for a pure pattern and at the screens' margin
otherwise, and for the hull with gamma > 0 a pure pattern's in-support
rows are its continuation interval's.  No decider is composed in: the
singleton deciders only build witnesses.  Random 2x2, 2x3 and 3x3 games on a
0.1 grid, gamma 0 or random, the clusters or the hull region of a random
union, and lattice cubes of which one has, per player, a row of some
pattern tight up to a jitter of +-{0.5, 1, 1.5} tolerances (``FEAS_TOL``,
or the screens' margin).  Examples are derandomised so the suite is
reproducible.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import spegrid as sg  # noqa: E402
from spegrid.feasibility import (FEAS_TOL,  # noqa: E402
                                 enumerate_support_patterns)
from spegrid.solver import (_build_context, _cluster_box,  # noqa: E402
                            _hull_window, _pattern_mask, _screen_pattern)

SHAPES = [(2, 2), (2, 3), (3, 3)]
JITTERS = [sign * k for k in (0.5, 1.0, 1.5) for sign in (-1, 1)]
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=300)


def tenths(lo, hi):
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10.0)


@st.composite
def games(draw):
    shape = draw(st.sampled_from(SHAPES))
    size = int(np.prod(shape)) * 2
    values = draw(st.lists(tenths(-3.0, 3.0), min_size=size, max_size=size))
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, np.array(values).reshape(shape + (2,)))


def cells(max_size, min_size=0):
    return st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   min_size=min_size, max_size=max_size)


@st.composite
def mask_cases(draw):
    """A game, gamma, the context of a random union (clusters or hull) and
    a lattice of cubes whose cube ``anchor`` puts, per player, the origin
    where one row flips: g1 * payoff + gamma * (the floor, a window edge or
    a payoff bound), less the side for a row bounding the cube's top, up
    to a jitter."""
    game = draw(games())
    gamma = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.95)))
    bounds = game.tables.bounds
    union = sg.CubeSet((bounds.low, bounds.low),
                       max(bounds.spread, 0.5) / 4.0, draw(cells(6, 1)))
    ctx = _build_context(union, hull=draw(st.booleans()))
    windows = region_windows(ctx, game)
    side = draw(tenths(0.1, 1.0))
    target = []
    for i in range(2):
        payoff = draw(st.sampled_from(game.payoffs[..., i].ravel().tolist()))
        ends = [ctx.w_floor[i], bounds.low, bounds.high]
        ends += [window[e][i] for window in windows for e in (0, 1)]
        edge = (1.0 - gamma) * payoff + gamma * draw(st.sampled_from(ends))
        edge -= draw(st.sampled_from([0.0, side]))
        # the hull's singleton compares w = (w' - g1 * payoff) / gamma
        tol = draw(st.sampled_from([FEAS_TOL, game.tables.screen_margin,
                                    gamma * FEAS_TOL]))
        target.append(edge + draw(st.sampled_from(JITTERS)) * tol)
    # at the lattice base the origin is the target itself, so a row can be
    # exactly tight
    anchor = draw(st.sampled_from([(0, 0), (1, 2), (3, 1)]))
    C = sg.CubeSet(tuple(t - k * side for t, k in zip(target, anchor)), side,
                   draw(cells(4)) | {anchor})
    return game, gamma, C, ctx, anchor


def region_windows(ctx, game):
    if ctx.halfplanes is not None:
        return [_hull_window(ctx, game.tables.bounds)]
    return [_cluster_box(cl) for cl in ctx.clusters]


def patterns_of(game):
    return enumerate_support_patterns([game.action_count(i) for i in range(2)])


def scalar_verdict(game, gamma, C, ix, ctx, region, pattern):
    """The search's scalar box-screen entry for the pair."""
    return _screen_pattern(C.origin_of(ix), C.side, pattern, game, gamma,
                           ctx.w_floor, region_windows(ctx, game)[region],
                           ctx.halfplanes is not None)


@PROPERTY
@given(mask_cases())
def test_mask_entries_are_the_scalar_verdicts(case):
    game, gamma, C, ctx, _ = case
    patterns = patterns_of(game)
    indices = C.indices()
    mask = _pattern_mask(indices, C, ctx, game, gamma)
    assert mask.shape == (len(indices), len(region_windows(ctx, game)),
                          len(patterns))
    for ix, rows in zip(indices, mask):
        for region, row in enumerate(rows):
            for keep, pattern in zip(row.tolist(), patterns):
                assert keep == scalar_verdict(game, gamma, C, ix, ctx, region,
                                              pattern)


def test_tight_cubes_reach_both_verdicts():
    # the anchored cubes must see both verdicts for pure and mixing
    # patterns in both kinds of region, or the property could hold
    # vacuously
    seen = {}

    @PROPERTY
    @given(mask_cases())
    def count(case):
        game, gamma, C, ctx, anchor = case
        patterns = patterns_of(game)
        k = C.indices().index(anchor)
        mask = _pattern_mask(C.indices(), C, ctx, game, gamma)[k]
        kind = "hull" if ctx.halfplanes is not None else "clusters"
        for keep, pattern in zip(mask.any(axis=0).tolist(), patterns):
            key = (kind, pattern.pure, keep)
            seen[key] = seen.get(key, 0) + 1

    count()
    for kind in ("hull", "clusters"):
        for pure in (True, False):
            for keep in (True, False):
                assert seen.get((kind, pure, keep), 0) >= 20, seen


def test_an_empty_pass_builds_an_empty_mask(pd):
    C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
    ctx = _build_context(C, hull=True)
    mask = _pattern_mask([], C, ctx, pd, 0.5)
    assert mask.shape == (0, 1, len(patterns_of(pd)))
