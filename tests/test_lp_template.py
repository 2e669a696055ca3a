"""The support LPs the solver fills from per-pattern templates, against the
same LPs built by name.

``mixed_cluster_system`` and ``correlated_support_system`` fill each LP
from a template made once per (pattern, gamma) of a game.  Each must be the
LP ``conftest.support_system`` builds constraint by constraint, to the bit:
the phase-1 tableau and cost row (compared by ``tobytes``, so signed zeros
count) and the basis the row-by-row simplex built from it
(``conftest.reference_tableau``), and so the verdict and the point.  The
cases: random 2x2, 2x3 and 3x3 games with payoffs on a grid that holds
exact zeros of both signs, gamma in {0, 0.3, 0.7, 0.9}, every pattern,
cluster boxes and hulls, and cubes and floors on both sides of zero, so
that rows get flipped.
"""

import math

import numpy as np
import pytest

import spegrid as sg
from spegrid.feasibility import _phase_one, enumerate_support_patterns
from spegrid.solver import _cluster_box
from conftest import reference_tableau, support_system

SHAPES = [(2, 2), (2, 3), (3, 3)]
GAMMAS = [0.0, 0.3, 0.7, 0.9]
GRID = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]


def grid_game(rng, shape) -> sg.StageGame:
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, rng.choice(GRID, size=shape + (2,)))


def assert_same_lp(system, oracle) -> int:
    """The template LP against its oracle; returns the rows flipped."""
    assert len(system.variables) == len(oracle.variables)
    # the terms in order: the shifts and the residual sum in that order
    assert [(list(c.coeffs.items()), c.rel, c.rhs)
            for c in system.constraints] == \
        [(list(c.coeffs.items()), c.rel, c.rhs) for c in oracle.constraints]
    sx, _ = _phase_one(system)
    T, z, basis, flip = reference_tableau(oracle)
    assert sx.T.tobytes() == T.tobytes()
    assert sx.z.tobytes() == z.tobytes()
    assert sx.basis == basis
    got, want = sg.solve_feasibility(system), sg.solve_feasibility(oracle)
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got) == list(want)
        assert list(map(float.hex, got.values())) == \
            list(map(float.hex, want.values()))
    return int(flip.sum())


def scenario(rng, shape):
    game = grid_game(rng, shape)
    cube = sg.Hypercube(tuple(rng.uniform(-2.0, 2.0, size=2)),
                        float(rng.uniform(0.05, 1.0)))
    floor = tuple(rng.uniform(-3.0, 1.0, size=2))
    return game, cube, floor


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_cluster_template_is_the_named_lp(shape, gamma):
    rng = np.random.default_rng([SHAPES.index(shape), GAMMAS.index(gamma)])
    flipped = 0
    for _ in range(3):
        game, cube, floor = scenario(rng, shape)
        cluster = sg.Cluster(tuple(rng.uniform(-3.0, 2.0, size=2)),
                             tuple(rng.uniform(0.1, 2.0, size=2)))
        for pattern in enumerate_support_patterns(shape):
            flipped += assert_same_lp(
                sg.mixed_cluster_system(cube, cluster, floor, game, gamma,
                                        pattern),
                support_system(cube, *_cluster_box(cluster), (), floor, game,
                               gamma, pattern))
    assert flipped > 0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("gamma", GAMMAS)
def test_hull_template_is_the_named_lp(shape, gamma):
    rng = np.random.default_rng([7, SHAPES.index(shape), GAMMAS.index(gamma)])
    flipped = 0
    for _ in range(3):
        game, cube, floor = scenario(rng, shape)
        bounds = game.tables.bounds
        cells = {tuple(rng.integers(0, 4, size=2))
                 for _ in range(rng.integers(1, 7))}
        C = sg.CubeSet((bounds.low, bounds.low),
                       max(bounds.spread, 0.5) / 4.0, cells)
        planes = sg.get_halfplanes(C)
        for pattern in enumerate_support_patterns(shape):
            flipped += assert_same_lp(
                sg.correlated_support_system(cube, planes, floor, bounds,
                                             game, gamma, pattern),
                support_system(cube, (bounds.low,) * 2, (bounds.high,) * 2,
                               planes, floor, game, gamma, pattern))
    assert flipped > 0


def test_compiled_linear_systems_keep_the_row_by_row_tableau():
    # free, upper-only and two-sided variables, zero coefficients of both
    # signs and right-hand sides of both signs, in random term orders
    rng = np.random.default_rng(21)
    for _ in range(200):
        system = sg.LinearSystem()
        count = int(rng.integers(1, 6))
        for j in range(count):
            low, high = float(rng.integers(-4, 1)), float(rng.integers(1, 5))
            system.add_variable(f"x{j}",
                                low=low if rng.random() < 0.6 else -math.inf,
                                high=high if rng.random() < 0.6 else math.inf)
        for _ in range(int(rng.integers(1, 6))):
            coeffs = {f"x{j}": float(rng.choice([-2.0, -0.0, 0.0, 0.5, 3.0]))
                      for j in rng.permutation(count)}
            system.add_constraint(coeffs, str(rng.choice(["<=", ">=", "="])),
                                  float(rng.choice([-3.0, -0.0, 0.0, 2.0])))
        sx, _ = _phase_one(system.compile())
        T, z, basis, _ = reference_tableau(system)
        assert sx.T.tobytes() == T.tobytes()
        assert sx.z.tobytes() == z.tobytes()
        assert sx.basis == basis


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_half_plane_raises(pd, bad):
    cube = sg.Hypercube((0.0, 0.0), 0.5)
    bounds = pd.tables.bounds
    pattern = enumerate_support_patterns([2, 2])[-1]
    for plane in (sg.HalfPlane(bad, 1.0, 0.0), sg.HalfPlane(1.0, bad, 0.0)):
        planes = (sg.HalfPlane(1.0, 0.0, 2.0), plane)
        with pytest.raises(ValueError, match="non-finite"):
            sg.correlated_support_system(cube, planes, (-1.0, -1.0), bounds,
                                         pd, 0.5, pattern)
        with pytest.raises(ValueError, match="non-finite"):
            support_system(cube, (bounds.low,) * 2, (bounds.high,) * 2,
                           planes, (-1.0, -1.0), pd, 0.5, pattern)


def test_templates_are_built_once_per_pattern_and_gamma(pd):
    game = sg.StageGame(pd.actions, pd.payoffs)
    cube = sg.Hypercube((0.0, 0.0), 0.5)
    cluster = sg.Cluster((-1.0, -1.0), (3.0, 3.0))
    patterns = enumerate_support_patterns([2, 2])
    for gamma in (0.3, 0.7):
        for pattern in patterns * 2:
            sg.mixed_cluster_system(cube, cluster, (-1.0, -1.0), game, gamma,
                                    pattern)
    assert len(game.tables.templates) == 2 * len(patterns)
