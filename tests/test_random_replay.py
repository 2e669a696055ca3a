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


@st.composite
def games(draw):
    shape = draw(st.sampled_from([(2, 2), (2, 3)]))
    size = int(np.prod(shape)) * 2
    tenths = draw(st.lists(st.integers(-20, 20), min_size=size,
                           max_size=size))
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions,
                        (np.array(tenths) / 10.0).reshape(shape + (2,)))


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
