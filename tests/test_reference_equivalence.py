"""End-to-end cross-check of the optimized solver against a plain reference.

The reference below re-implements the refinement loop with none of the
production shortcuts: no certificate replay, no closed-form pattern
deciders, no screening, no context caching.  Every cube test goes through
the LP builders and solve_feasibility directly.  Optimizations in the real
solver must not change which cubes survive, so both must produce identical
final sets and traces of removals per pass.
"""

import numpy as np
import pytest

import spegrid as sg
from spegrid.feasibility import enumerate_support_patterns, solve_feasibility
from spegrid.game import payoff_bounds
from spegrid.geometry import get_clusters, get_halfplanes, initial_cube, split_all
from conftest import pure_support_system


def _brute_supported(cube, C, game, config):
    w_floor = C.min_origin()
    if config.mode == "pure":
        for cluster in get_clusters(C):
            for profile in game.profiles():
                sys = pure_support_system(cube, cluster, w_floor, game,
                                          config.gamma, profile)
                if solve_feasibility(sys) is not None:
                    return True
        return False
    patterns = enumerate_support_patterns(
        [game.action_count(i) for i in range(2)])
    if config.mode == "mixed-clusters":
        for cluster in get_clusters(C):
            for pattern in patterns:
                sys = sg.mixed_cluster_system(cube, cluster, w_floor, game,
                                              config.gamma, pattern)
                if solve_feasibility(sys) is not None:
                    return True
        return False
    planes = get_halfplanes(C)
    bounds = payoff_bounds(game)
    for pattern in patterns:
        sys = sg.correlated_support_system(cube, planes, w_floor, bounds,
                                           game, config.gamma, pattern)
        if solve_feasibility(sys) is not None:
            return True
    return False


def reference_solve(game, config):
    """Literal refinement loop over direct LP cube tests (bound completion)."""
    C = initial_cube(payoff_bounds(game), game.player_count)
    removals = []
    while True:
        removed = 0
        for idx in list(C.indices()):
            if not _brute_supported(C.cube_at(idx), C, game, config):
                C.remove(idx)
                removed += 1
                if len(C) == 0:
                    removals.append(removed)
                    return C, "empty", removals
        removals.append(removed)
        if removed == 0:
            if C.side <= config.bound_threshold + 1e-12:
                return C, "converged", removals
            if C.generation + 1 > config.max_generations:
                return C, "generation_guard", removals
            C = split_all(C)


CASES = [
    ("prisoners_dilemma", dict(gamma=0.3, epsilon=0.6, mode="pure")),
    ("prisoners_dilemma", dict(gamma=0.3, epsilon=0.6, mode="mixed-clusters")),
    ("prisoners_dilemma", dict(gamma=0.55, epsilon=0.7,
                               mode="mixed-correlated")),
    ("battle_of_sexes", dict(gamma=0.4, epsilon=0.5, mode="mixed-clusters")),
    ("battle_of_sexes", dict(gamma=0.2, epsilon=0.5,
                             mode="mixed-correlated")),
    ("matching_pennies", dict(gamma=0.5, epsilon=0.8, mode="pure")),
    ("matching_pennies", dict(gamma=0.4, epsilon=0.8, mode="mixed-clusters")),
    ("rock_paper_scissors", dict(gamma=0.3, epsilon=0.8,
                                 mode="mixed-correlated")),
]


@pytest.mark.parametrize("name,kwargs", CASES)
def test_optimized_solver_matches_reference(name, kwargs):
    game = sg.load_bundled(name)
    config = sg.SolverConfig(max_generations=10, **kwargs)
    ref_final, ref_status, ref_removals = reference_solve(game, config)
    report = sg.solve(game, config)
    assert report.status == ref_status
    assert report.final.indices() == ref_final.indices()
    assert report.final.side == ref_final.side
    got_removals = [s.removed for s in report.iterations]
    assert got_removals == ref_removals


def test_three_player_pure_mode():
    # a 2x2x2 coordination game: everyone matching on action 0 pays (3,3,3),
    # matching on action 1 pays (1,1,1), anything else pays zero; both
    # all-match profiles are stage equilibria and their cubes must survive
    tensor = np.zeros((2, 2, 2, 3))
    tensor[0, 0, 0] = (3.0, 3.0, 3.0)
    tensor[1, 1, 1] = (1.0, 1.0, 1.0)
    game = sg.StageGame((("a", "b"),) * 3, tensor)
    config = sg.SolverConfig(gamma=0.2, epsilon=1.5, mode="pure")
    report = sg.solve(game, config)
    assert report.converged
    for target in [(3.0, 3.0, 3.0), (1.0, 1.0, 1.0)]:
        assert sg.locate(target, report.final) is not None
    # every certificate replays and the union stays 3-dimensional lattice
    for idx in report.final.indices():
        assert sg.verify_certificate(report.certificates[idx], game,
                                     config.gamma, report.final, idx)


def test_constant_game_degenerate_guard():
    game = sg.StageGame((("x", "y"), ("x", "y")), np.full((2, 2, 2), 5.0))
    report = sg.solve(game, sg.SolverConfig(gamma=0.5, epsilon=0.5,
                                            mode="mixed-correlated"))
    assert report.converged
    assert sg.locate((5.0, 5.0), report.final) is not None


def test_gamma_zero_solve_keeps_only_stage_equilibria(pd):
    report = sg.solve(pd, sg.SolverConfig(gamma=0.0, epsilon=0.2,
                                          mode="mixed-clusters"))
    assert report.converged
    for cube in report.final:
        assert cube.contains((0.0, 0.0), tol=cube.side)
