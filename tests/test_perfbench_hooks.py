"""The benchmark's trace hooks still match the package.

``perfbench/tracer.py`` wraps, from outside the package, the functions one
spegrid module looks up in another.  A refactor that renames a hook, or
makes the solver reach a layer without going through it, would only show
up in a traced benchmark run; this test makes it fail the unit suite.  The
tracer is loaded by path and used as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import spegrid as sg

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer_module):
    for module_name, attr, _ in tracer_module.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


SOLVES = [("prisoners_dilemma", 0.7, 3.2, "mixed-correlated"),
          ("battle_of_sexes", 0.4, 1.0, "mixed-clusters")]


# each solve in the literal loop and with frozen passes; the literal cases
# keep their plain ids
@pytest.mark.parametrize("game,gamma,epsilon,mode,frozen", [
    pytest.param(*solve, frozen,
                 id="-".join(map(str, solve)) + ("-frozen" if frozen else ""))
    for solve in SOLVES for frozen in (False, True)])
def test_traced_solve_keeps_identities(tracer_module, game, gamma, epsilon,
                                       mode, frozen):
    tracer = tracer_module.Tracer()
    config = sg.SolverConfig(gamma=gamma, epsilon=epsilon, mode=mode,
                             frozen_passes=frozen)
    tracer.install()
    try:
        with tracer.phase_span("solve"):
            report = sg.solve(sg.load_bundled(game), config)
    finally:
        tracer.uninstall()
    assert report.converged
    counts, times = tracer.metrics(report,
                                   {p: 1 for p in tracer_module.PHASES})
    assert tracer_module.check_identities(counts) == []
    # the hooks saw every layer: context builds, replays (a frozen pass
    # decides each through _replay_ok too), searches, support programs,
    # the LP builders and the simplex
    assert counts["geometry.context_builds"] > 0
    assert counts["solver.replay_hits"] > 0
    assert counts["solver.searches"] > 0
    assert counts["feasibility.support_programs"] > 0
    assert counts["feasibility.lps"] > 0
    assert times["feasibility.lp_build_s"] > 0.0
