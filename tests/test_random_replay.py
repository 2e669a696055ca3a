"""Certificates of random games replay against their final sets.

Random 2x2 and 2x3 games with payoffs on a 0.1 grid, solved by every
back-end in the literal loop and with frozen passes.  Every converged
solve's certificates must pass ``verify_union`` against its final set,
which supplies each replay's cube position, floor and continuation region.
Examples are derandomised so the suite is reproducible; two per back-end
and loop variant keep the test to a dozen solves.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import spegrid as sg  # noqa: E402
from spegrid.solver import MODES, verify_union  # noqa: E402


def _game(shape, payoffs):
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions, np.reshape(payoffs, shape + (2,)))


@st.composite
def games(draw, shapes=((2, 2), (2, 3))):
    shape = draw(st.sampled_from(shapes))
    size = int(np.prod(shape)) * 2
    tenths = draw(st.lists(st.integers(-20, 20), min_size=size,
                           max_size=size))
    return _game(shape, np.array(tenths) / 10.0)


@pytest.mark.parametrize("frozen", [False, True],
                         ids=["literal", "frozen"])
@pytest.mark.parametrize("mode", MODES)
@settings(deadline=None, derandomize=True, database=None, max_examples=2)
@given(game=games(), gamma=st.sampled_from([0.2, 0.4, 0.6]),
       epsilon=st.sampled_from([0.8, 1.2]))
def test_certificates_replay_against_final_set(mode, frozen, game, gamma,
                                               epsilon):
    # a constant game (Hypothesis's first example) has one cube; the
    # degenerate guard has its own test
    assume(np.ptp(game.payoffs) > 0)
    report = sg.solve(game, sg.SolverConfig(gamma=gamma, epsilon=epsilon,
                                            mode=mode, frozen_passes=frozen))
    if report.converged:
        assert verify_union(report.final, report.certificates, game, gamma)


@st.composite
def degenerate_cases(draw, kind):
    """(game, gamma) for one degenerate input: every payoff equal (zero
    spread, so the initial cube takes the side-1 guard), a player with one
    action (every union is then a single lattice column or row), or
    gamma = 0."""
    gamma = draw(st.sampled_from([0.2, 0.5]))
    if kind == "zero_spread":
        shape = draw(st.sampled_from([(2, 2), (2, 3)]))
        value = draw(st.integers(-20, 20)) / 10.0
        return _game(shape, np.full(shape + (2,), value)), gamma
    if kind == "gamma_zero":
        gamma = 0.0
        game = draw(games(shapes=[(2, 2), (2, 3)]))
    else:
        game = draw(games(shapes=[(1, 2), (1, 3), (2, 1), (3, 1)]))
    assume(np.ptp(game.payoffs) > 0)
    return game, gamma


@pytest.mark.parametrize("kind", ["zero_spread", "one_action", "gamma_zero"])
@pytest.mark.parametrize("frozen", [False, True],
                         ids=["literal", "frozen"])
@pytest.mark.parametrize("mode", MODES)
@settings(deadline=None, derandomize=True, database=None, max_examples=3)
@given(data=st.data())
def test_degenerate_inputs_converge_and_replay(mode, frozen, kind, data):
    game, gamma = data.draw(degenerate_cases(kind))
    report = sg.solve(game, sg.SolverConfig(gamma=gamma, epsilon=0.4,
                                            mode=mode, frozen_passes=frozen))
    if mode == "pure" and gamma == 0.0 and not any(
            r == br for r, br in game.tables.pure.values()):
        # at gamma = 0 a pure SPE plays a pure Nash equilibrium every period
        assert report.status == "empty"
        return
    assert report.converged
    assert verify_union(report.final, report.certificates, game, gamma)
