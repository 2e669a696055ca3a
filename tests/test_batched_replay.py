"""The batched forms of the solver's per-cube steps agree with the scalar
ones bit for bit.

* ``_residual_kernel`` over the replay table's gather must give every
  certificate the residual bits of the scalar oracle ``scalar_residual``
  (in conftest), and a frozen pass's ``_ReplayTable`` its verdict.  Random 2x2, 2x3 and 3x3 games on a 0.1 grid;
  point-mass and genuinely mixed certificates whose in-support
  continuations sit on a cube edge, a cluster edge or a hull vertex, up to
  the boundary jitters; certificates as a solve makes them and as a file
  read gives them (no replay row, or a near-point-mass alpha).
* ``_clip_box`` (the singleton correlated decider's row-pruned clip) must
  return what ``_clip`` returns for the box, on random boxes against hulls
  of random cube sets, boxes within 1e-7 of the hull included.
* ``_point_mass_witnesses`` (a frozen pass's hull singleton decider on
  arrays) must return, per cube, the first witness that
  ``_singleton_correlated_solution`` finds over the kept point masses, with
  its bits, and the constructor must give it the replay row that a
  certificate read from a file gets.
* With the refresh deferred to the passes that read it, every mixed
  certificate in a returned report is anchored at the final floor.

Examples are derandomised so the suite is reproducible.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import spegrid as sg  # noqa: E402
import spegrid.solver as solver  # noqa: E402
from spegrid.feasibility import (FEAS_TOL, SupportSolution,  # noqa: E402
                                 enumerate_support_patterns)
from spegrid.game import MixedProfile, conditional_payoff_table  # noqa: E402
from spegrid.geometry import HalfPlane  # noqa: E402
from spegrid.solver import (_ReplayTable, _build_context,  # noqa: E402
                            _certificate_rows, _clip, _clip_box,
                            _point_mass_witnesses, _replay_row,
                            _residual_kernel, _singleton_correlated_solution)
from conftest import scalar_residual  # noqa: E402

SHAPES = [(2, 2), (2, 3), (3, 3)]
JITTERS = [0.0] + [sign * k * 1e-7 for k in (0.5, 1.0, 1.5, 3.0)
                   for sign in (-1, 1)]


def tenths(lo, hi):
    return st.integers(round(lo * 10), round(hi * 10)).map(lambda k: k / 10.0)


@st.composite
def games(draw):
    shape = draw(st.sampled_from(SHAPES))
    values = draw(st.lists(tenths(-3.0, 3.0), min_size=int(np.prod(shape)) * 2,
                           max_size=int(np.prod(shape)) * 2))
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, np.array(values).reshape(shape + (2,)))


@st.composite
def cube_sets(draw, game, span=4, max_size=8):
    bounds = game.tables.bounds
    cells = draw(st.sets(st.tuples(st.integers(0, span - 1),
                                   st.integers(0, span - 1)),
                         min_size=1, max_size=max_size))
    return sg.CubeSet((bounds.low, bounds.low),
                      max(bounds.spread, 0.5) / span, cells)


@st.composite
def alphas(draw, game, pattern):
    """A point mass, a mixture over the pattern with weights 1..3, or (as a
    file may hold one) a size-1 pattern's alpha 5e-10 off its action."""
    kind = draw(st.sampled_from(["exact", "mixed", "near"]))
    profile = tuple(s[0] for s in pattern.supports)
    if pattern.pure and kind == "exact":
        return game.tables.point_masses[profile]
    probs = []
    for i, supp in enumerate(pattern.supports):
        p = np.zeros(game.action_count(i))
        if len(supp) == 1:
            p[:] = 5e-10 if kind == "near" else 0.0
            p[supp[0]] = 1.0 - 5e-10 * (len(p) - 1) if kind == "near" else 1.0
        else:
            weights = draw(st.lists(st.integers(1, 3), min_size=len(supp),
                                    max_size=len(supp)))
            p[list(supp)] = np.array(weights) / sum(weights)
        probs.append(p)
    return MixedProfile(tuple(probs))


@st.composite
def certificates(draw, game, gamma, C, ix, ctx, kind):
    """A certificate for cube ix of C near the replay tolerance.

    Either the cube's own search result, or one placed so that its
    in-support continuations sit where a residual term is tight: the cube's
    low or high utility edge, or the region (a hull vertex or edge
    midpoint, a cluster edge).  Every in-support continuation then moves by
    a jitter.  Out-of-support continuations are arbitrary: replay anchors
    them at the floor.  Half of them have no replay row, as a file read
    gives, and a size-1 pattern may take an alpha 5e-10 off its
    action."""
    found = None
    if draw(st.booleans()):
        cube = C.cube_at(ix)
        if kind == "correlated":
            found = solver.cube_supported_correlated(cube, C, game, gamma,
                                                     ctx=ctx)
        else:
            found = solver.cube_supported_mixed(cube, C, game, gamma, ctx)
    if found is not None:
        pattern, alpha = found.solution.pattern, found.solution.alpha
        if pattern.pure and draw(st.booleans()):
            alpha = draw(alphas(game, pattern))
    else:
        pattern = draw(st.sampled_from(enumerate_support_patterns(
            [game.action_count(i) for i in range(2)])))
        alpha = draw(alphas(game, pattern))
    cond = conditional_payoff_table(game, alpha)
    origin = C.origin_of(ix)
    if kind == "correlated":
        verts = ctx.vertices
        k = draw(st.integers(0, len(verts) - 1))
        t = draw(st.sampled_from([0.0, 0.5]))
        anchor = [x + t * (y - x)
                  for x, y in zip(verts[k], verts[(k + 1) % len(verts)])]
    else:
        cl = draw(st.sampled_from(ctx.clusters))
        anchor = [o + draw(st.sampled_from([0.0, 1.0])) * ln
                  for o, ln in zip(cl.origin, cl.lengths)]
    conts = []
    for i in range(2):
        row = []
        for a in range(game.action_count(i)):
            if a not in pattern.supports[i]:
                row.append(draw(tenths(-5.0, 5.0)))
                continue
            if found is not None:
                w = found.solution.continuations[i][a]
            else:
                target = draw(st.sampled_from(["region", "low", "high"]))
                if target == "region" or gamma == 0.0:
                    w = anchor[i]
                else:
                    edge = origin[i] + (C.side if target == "high" else 0.0)
                    w = (edge - (1.0 - gamma) * cond[i][a]) / gamma
            row.append(w + draw(st.sampled_from(JITTERS)))
        conts.append(tuple(row))
    utils = tuple(tuple((1.0 - gamma) * c + gamma * w
                        for c, w in zip(cond[i], conts[i])) for i in range(2))
    sol = SupportSolution(alpha, tuple(conts), utils, pattern)
    if draw(st.booleans()):  # no row, as a file read gives
        return solver.SupportCertificate(kind=kind, w_floor=ctx.w_floor,
                                         solution=sol)
    return solver._mixed_certificate(kind, ctx.w_floor, sol, game)


@st.composite
def replay_cases(draw):
    game = draw(games())
    gamma = draw(st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9]))
    C = draw(cube_sets(game))
    kind = draw(st.sampled_from(["mixed", "correlated"]))
    ctx = _build_context(C, hull=kind == "correlated")
    certs = {ix: draw(certificates(game, gamma, C, ix, ctx, kind))
             for ix in C.indices()}
    return game, gamma, C, ctx, kind, certs


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def table(certs, indices, C, game, gamma, hull):
    """A replay table over the certificates of the cubes ``indices``."""
    return _ReplayTable(indices, *_certificate_rows(certs, indices, game), C,
                        gamma, [game.action_count(i) for i in range(2)], hull)


def kernel(certs, indices, C, ctx, game, gamma):
    m = [game.action_count(i) for i in range(2)]
    return _residual_kernel(indices, *_certificate_rows(certs, indices, game),
                            C, ctx, gamma, m)


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(replay_cases())
def test_batched_residuals_match_the_scalar_replay(case):
    game, gamma, C, ctx, kind, certs = case
    indices = C.indices()
    batch = kernel(certs, indices, C, ctx, game, gamma)
    frozen = table(certs, indices, C, game, gamma, kind == "correlated")
    region = ctx.halfplanes if kind == "correlated" else ctx.clusters
    for k, ix in enumerate(indices):
        scalar = scalar_residual(certs[ix], game, gamma, C.origin_of(ix),
                                 C.side, ctx.w_floor, region)
        assert bits(batch[k]) == bits(scalar)
        assert frozen.verdict(ix, ctx) == (scalar <= FEAS_TOL)


def test_batched_residuals_reach_both_verdicts_near_the_tolerance():
    # the cases above must straddle the tolerance, or the verdict check
    # would hold vacuously
    near = {True: 0, False: 0}

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=400)
    @given(replay_cases())
    def count(case):
        game, gamma, C, ctx, _, certs = case
        indices = C.indices()
        for r in kernel(certs, indices, C, ctx, game, gamma):
            if 0.0 < r <= 4e-7:
                near[bool(r <= FEAS_TOL)] += 1

    count()
    assert min(near.values()) >= 50, near


@st.composite
def withdrawal_cases(draw):
    """A replay case on up to 12 cubes, and the order in which they are
    withdrawn."""
    game = draw(games())
    gamma = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9]))
    C = draw(cube_sets(game, span=5, max_size=12))
    kind = draw(st.sampled_from(["mixed", "correlated"]))
    ctx = _build_context(C, hull=kind == "correlated")
    certs = {ix: draw(certificates(game, gamma, C, ix, ctx, kind))
             for ix in C.indices()}
    return game, gamma, C, kind, certs, draw(st.permutations(C.indices()))


def replay_under_withdrawals(case):
    """The literal loop's replays, one cube at a time in pass order, with a
    cube withdrawn and the context rebuilt after each: per replay, the
    table's verdict and the scalar residual against that context."""
    game, gamma, C, kind, certs, withdrawals = case
    hull, C = kind == "correlated", C.copy()
    order = list(C.indices())
    replay = table(certs, order, C, game, gamma, hull)
    out = []
    for ix in withdrawals:
        ctx = _build_context(C, hull)
        nxt = next((k for k in order if k in C), None)
        if nxt is None:
            break
        order = order[order.index(nxt) + 1:]
        residual = scalar_residual(
            certs[nxt], game, gamma, C.origin_of(nxt), C.side, ctx.w_floor,
            ctx.halfplanes if hull else ctx.clusters)
        out.append((replay.verdict(nxt, ctx), residual))
        C.remove(ix)
    return out


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(withdrawal_cases())
def test_replay_table_follows_withdrawals(case):
    for verdict, residual in replay_under_withdrawals(case):
        assert verdict == (residual <= FEAS_TOL)


def test_replay_table_cases_move_every_row_group():
    # the cases above must move the floor, move the region and keep it,
    # and reach both verdicts near the tolerance, or the check shows little
    seen = {"floor": 0, "region": 0, "kept": 0, True: 0, False: 0}

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=400)
    @given(withdrawal_cases())
    def count(case):
        C, hull = case[2].copy(), case[3] == "correlated"
        floor = region = None
        for ix in case[5]:
            ctx = _build_context(C, hull)
            now = ctx.halfplanes if hull else ctx.clusters
            if region is not None:
                seen["floor"] += ctx.w_floor != floor
                seen["region" if now is not region else "kept"] += 1
            floor, region = ctx.w_floor, now
            C.remove(ix)
        for verdict, residual in replay_under_withdrawals(case):
            if 0.0 < residual <= 4e-7:
                seen[verdict] += 1

    count()
    assert min(seen.values()) >= 50, seen


@st.composite
def clip_cases(draw):
    """A box [lo, hi] and the hull rows of a random cube set; each box
    coordinate is a hull vertex's (or a random one), up to a jitter."""
    game = draw(games())
    C = draw(cube_sets(game, span=6))
    verts = sg.hull_vertices(C)
    ends = []
    for d in range(2):
        pair = []
        for _ in range(2):
            if draw(st.booleans()):
                v = draw(st.sampled_from(verts))[d]
            else:
                v = draw(tenths(game.tables.bounds.low - 0.5,
                                game.tables.bounds.high + 0.5))
            pair.append(v + draw(st.sampled_from(JITTERS)))
        ends.append(sorted(pair))
    lo, hi = (ends[0][0], ends[1][0]), (ends[0][1], ends[1][1])
    return lo, hi, sg.get_halfplanes(C)


def hexes(poly):
    return [tuple(map(float.hex, p)) for p in poly]


def full_clip(lo, hi, rows):
    return _clip([(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]),
                  (lo[0], hi[1])], rows)


@settings(deadline=None, derandomize=True, database=None, max_examples=1500)
@given(clip_cases())
def test_pruned_clip_matches_the_full_clip(case):
    lo, hi, rows = case
    assert hexes(_clip_box(lo, hi, rows)) == hexes(full_clip(lo, hi, rows))


def test_rows_after_a_crossing_outside_the_box_are_clipped():
    # The box's top-left corner lies 0.9e-7 outside the first row, within
    # the tolerance, so that row keeps it and cuts its crossing 1.5e-7
    # beyond it, outside the box.  All four corners satisfy the second row
    # with value <= 0, yet it cuts that crossing: it must not be passed over.
    lo, hi = (0.0, -1.0), (1.0, 0.0)
    rows = (HalfPlane(0.6, 0.8, -0.9e-7), HalfPlane(-0.8, 0.6, 0.0))
    full = full_clip(lo, hi, rows)
    assert hexes(full) != hexes(full_clip(lo, hi, rows[:1]))
    assert hexes(_clip_box(lo, hi, rows)) == hexes(full)


@st.composite
def singleton_cases(draw):
    """A pure pattern and a cube of a random set, placed so that the
    decider's box reaches a hull vertex up to a jitter."""
    game = draw(games())
    C = draw(cube_sets(game, span=6))
    gamma = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    pattern = draw(st.sampled_from([p for p in enumerate_support_patterns(
        [game.action_count(i) for i in range(2)]) if p.pure]))
    profile = tuple(s[0] for s in pattern.supports)
    cond = game.tables.conditional[profile]
    vertex = draw(st.sampled_from(sg.hull_vertices(C)))
    side = draw(tenths(0.1, 2.0))
    origin = []
    for i in range(2):
        r = cond[i][profile[i]]
        edge = (1.0 - gamma) * r + gamma * vertex[i]
        if draw(st.booleans()):
            edge -= side
        origin.append(edge + draw(st.sampled_from(JITTERS)))
    floor = tuple(lo - draw(tenths(0.0, 3.0)) for lo in C.min_origin())
    return game, C, gamma, pattern, tuple(origin), side, floor


@settings(deadline=None, derandomize=True, database=None, max_examples=600)
@given(singleton_cases())
def test_pruned_singleton_decider_returns_the_unpruned_witness(case):
    game, C, gamma, pattern, origin, side, floor = case
    args = (origin, side, sg.get_halfplanes(C), floor, game.tables.bounds,
            game, gamma, pattern)
    pruned = solver._singleton_correlated_solution(*args)
    with mock.patch.object(solver, "_clip_box", full_clip):
        unpruned = solver._singleton_correlated_solution(*args)
    assert (pruned is None) == (unpruned is None)
    if pruned is not None:
        assert hexes(pruned.continuations) == hexes(unpruned.continuations)


@st.composite
def witness_cases(draw):
    """The hull context of a random union and a 3x3 block of cubes of a
    lattice whose base puts, per player, a point mass's continuation box
    edge at a hull vertex up to a jitter (or at a zero of either sign), and
    a random pattern mask over the block."""
    game = draw(games())
    if draw(st.booleans()):  # zero payoffs of both signs
        payoffs = game.payoffs.copy()
        payoffs[payoffs == 0.0] = draw(st.sampled_from([0.0, -0.0]))
        game = sg.StageGame(game.actions, payoffs)
    C = draw(cube_sets(game, span=6))
    ctx = _build_context(C, hull=True)
    gamma = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9]))
    patterns = game.tables.patterns
    point = draw(st.sampled_from([p for p in patterns if p.pure]))
    profile = tuple(s[0] for s in point.supports)
    cond = game.tables.conditional[profile]
    vertex = draw(st.sampled_from(ctx.vertices))
    side = draw(tenths(0.1, 2.0))
    base = []
    for i in range(2):
        edge = solver._utility(cond[i][profile[i]], vertex[i], gamma)
        if draw(st.booleans()):
            edge -= side
        base.append(draw(st.sampled_from([
            edge + draw(st.sampled_from(JITTERS)), 0.0, -0.0])))
    lattice = sg.CubeSet(base, side, [(0, 0)])
    indices = [(k0, k1) for k0 in (-1, 0, 1) for k1 in (-1, 0, 1)]
    keep = np.array(draw(st.lists(st.booleans(), min_size=9 * len(patterns),
                                  max_size=9 * len(patterns))))
    return game, gamma, lattice, ctx, indices, \
        keep.reshape(9, 1, len(patterns))


def scalar_witness(game, gamma, lattice, ctx, ix, keep):
    """The first kept point mass's witness the scalar decider finds for
    the cube ``ix`` of the lattice, as a search meets them, or None."""
    for pattern, kept in zip(game.tables.patterns, keep[0]):
        if kept and pattern.pure:
            sol = _singleton_correlated_solution(
                lattice.origin_of(ix), lattice.side, ctx.halfplanes,
                ctx.w_floor, game.tables.bounds, game, gamma, pattern)
            if sol is not None:
                return sol
    return None


def solution_bits(sol):
    return (sol.pattern, sol.alpha, hexes(sol.continuations),
            hexes(sol.utilities))


@settings(deadline=None, derandomize=True, database=None, max_examples=500)
@given(witness_cases())
def test_batched_point_mass_witnesses_match_the_scalar_decider(case):
    game, gamma, lattice, ctx, indices, keep = case
    batch = _point_mass_witnesses(indices, keep, lattice, ctx, game, gamma)
    assert len(batch) == len(indices)
    for ix, found, kept in zip(indices, batch, keep):
        sol = scalar_witness(game, gamma, lattice, ctx, ix, kept)
        if sol is None:
            assert found == {}
            continue
        [(pattern, witness)] = found.items()
        assert pattern == sol.pattern == witness.pattern
        assert solution_bits(witness) == solution_bits(sol)
        # the shared point mass, so the constructor reads the shared table
        assert witness.alpha is game.tables.point_masses[
            tuple(s[0] for s in pattern.supports)]
        cert = solver._mixed_certificate("correlated", ctx.w_floor, witness,
                                         game)
        # a certificate as a file read gives it: no row, and its own alpha,
        # whose table is computed
        fresh = solver.SupportCertificate("correlated", ctx.w_floor,
                                          solution=replace(sol, alpha=(
                                              MixedProfile(sol.alpha.probs))))
        assert hexes([cert.row]) == hexes([_replay_row(fresh, game)])


def test_point_mass_witness_cases_reach_every_clip():
    # the cases above must hold boxes that every row passes over, that a
    # row rejects, that one row and that two rows cut, and degenerate ones,
    # or the comparison shows little
    seen = {"over": 0, "rejected": 0, "cut by 1": 0, "cut by 2+": 0,
            "lo == hi": 0}
    clips = []

    def counting_clip(poly, rows, tol=FEAS_TOL):
        clips.append(1)
        return _clip(poly, rows, tol)

    def spying_clip_box(lo, hi, rows):
        del clips[:]
        with mock.patch.object(solver, "_clip", counting_clip):
            poly = _clip_box(lo, hi, rows)
        seen["lo == hi"] += lo[0] == hi[0] or lo[1] == hi[1]
        if clips:
            seen["cut by 1" if len(clips) == 1 else "cut by 2+"] += 1
        else:
            seen["over" if poly else "rejected"] += 1
        return poly

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=500)
    @given(witness_cases())
    def count(case):
        game, gamma, lattice, ctx, indices, keep = case
        with mock.patch.object(solver, "_clip_box", spying_clip_box):
            for ix, kept in zip(indices, keep):
                scalar_witness(game, gamma, lattice, ctx, ix, kept)

    count()
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("frozen", [False, True], ids=["literal", "frozen"])
@pytest.mark.parametrize("mode", ["mixed-clusters", "mixed-correlated"])
@pytest.mark.parametrize("name,gamma,epsilon,generations,status", [
    ("prisoners_dilemma", 0.7, 1.6, 30, "converged"),
    ("battle_of_sexes", 0.5, 0.8, 30, "converged"),
    ("prisoners_dilemma", 0.7, 1e-6, 4, "generation_guard"),
])
def test_report_certificates_are_anchored_at_the_final_floor(
        name, gamma, epsilon, generations, status, mode, frozen):
    game = sg.load_bundled(name)
    report = sg.solve(game, sg.SolverConfig(
        gamma=gamma, epsilon=epsilon, mode=mode, frozen_passes=frozen,
        max_generations=generations))
    assert report.status == status
    floor = report.final.min_origin()
    side = report.final.side
    for cert in report.certificates.values():
        assert cert.w_floor == floor
        sol = cert.solution
        for i in range(2):
            for a, w in enumerate(sol.continuations[i]):
                if a not in sol.pattern.supports[i]:
                    # at the floor, or where the LP put it in the floor's
                    # cube when the certificate was found at this floor
                    assert floor[i] - FEAS_TOL <= w <= floor[i] + side \
                        + FEAS_TOL
