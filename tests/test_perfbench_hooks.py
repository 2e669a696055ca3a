"""The benchmark's trace hooks still match the package.

``perfbench/tracer.py`` wraps, from outside the package, the functions one
spegrid module looks up in another.  A refactor that renames a hook, or
makes the solver reach a layer without going through it, would only show
up in a traced benchmark run; this test makes it fail the unit suite.  The
tracer and the benchmark's check and extract steps are loaded by path and
used as they are.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="module")
def worker_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", TRACER_PATH.parent / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_check_and_extract_see_the_automata(tracer_module,
                                                   worker_module):
    # the frozen_pd workload: its full automaton has lottery transitions.
    # The check and extract phases run the benchmark's own step functions.
    spec = worker_module.WORKLOADS["frozen_pd"]
    game = sg.load_bundled(spec["game"])
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with tracer.phase_span("solve"):
            report = sg.solve(game, config)
        with tracer.phase_span("check"):
            assert worker_module.check_bounds(sg, game, config, report)
        with tracer.phase_span("extract"):
            assert worker_module.check_targets(sg, game, config, report,
                                               np.random.default_rng(0))
    finally:
        tracer.uninstall()
    counts, times = tracer.metrics(report,
                                   {p: 1 for p in tracer_module.PHASES})
    assert tracer_module.check_identities(counts) == []
    assert counts["automaton.states"] == len(report.final)
    assert counts["automaton.lotteries"] > 0
    for layer in ("build_s", "value_s", "deviation_s"):
        assert times[f"automaton.{layer}"] > 0.0


def _traced_solve_counts(tracer_module, spec) -> dict:
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with tracer.phase_span("solve"):
            report = sg.solve(sg.load_bundled(spec["game"]), config)
    finally:
        tracer.uninstall()
    counts, _ = tracer.metrics(report, {p: 1 for p in tracer_module.PHASES})
    assert tracer_module.check_identities(counts) == []
    return counts


def test_traced_lp_rps_solve_keeps_its_lp_shape(tracer_module,
                                                 worker_module):
    # the support LPs are filled from per-pattern templates: the traced
    # lp_rps solve still sees every LP, with the rows and columns of the
    # LPs built by name
    counts = _traced_solve_counts(tracer_module,
                                  worker_module.WORKLOADS["lp_rps"])
    assert counts["feasibility.lps"] == 75
    assert counts["feasibility.lps_infeasible"] == 21
    # 2,752 constraint rows and 1,224 variables over the 75 LPs
    assert counts["feasibility.lp_rows_mean"] == pytest.approx(2752 / 75)
    assert counts["feasibility.lp_cols_mean"] == pytest.approx(1224 / 75)


def test_traced_clusters_bos_solve_keeps_its_lp_shape(tracer_module,
                                                      worker_module):
    # the only workload of the cluster back-end: its LPs and support
    # programs per solve
    counts = _traced_solve_counts(tracer_module,
                                  worker_module.WORKLOADS["clusters_bos"])
    assert counts["feasibility.lps"] == 331
    assert counts["feasibility.lps_infeasible"] == 0
    assert counts["feasibility.support_programs"] == 1784


def test_traced_verify_keeps_identities(tracer_module, worker_module,
                                        tmp_path):
    # the frozen_pd workload's write and --verify step under the verify
    # phase, as a --trace 1 benchmark run takes it
    import spegrid.cli as sg_cli

    spec = worker_module.WORKLOADS["frozen_pd"]
    game = sg.load_bundled(spec["game"])
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with tracer.phase_span("solve"):
            report = sg.solve(game, config)
        with tracer.phase_span("verify"):
            assert worker_module.write_and_verify(
                sg, sg_cli, game, config, report, tmp_path / "final_set.txt")
    finally:
        tracer.uninstall()
    counts, times = tracer.metrics(report,
                                   {p: 1 for p in tracer_module.PHASES})
    assert tracer_module.check_identities(counts) == []
    assert times["cli.write_s"] > 0.0


def test_traced_frozen_pd_solve_keeps_its_counts(tracer_module,
                                                 worker_module):
    # the frozen pass's mask is its searches' only box screen: moving the
    # screen out of the searches leaves every LP, support program, search
    # and replay of the frozen_pd solve as it was
    counts = _traced_solve_counts(tracer_module,
                                  worker_module.WORKLOADS["frozen_pd"])
    assert counts["feasibility.lps"] == 70
    assert counts["feasibility.lps_infeasible"] == 0
    assert counts["feasibility.support_programs"] == 1438
    assert counts["solver.searches"] == 1518
    assert counts["solver.replays"] == 4797
    assert counts["solver.replay_hits"] == 4191
