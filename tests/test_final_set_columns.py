"""``--verify`` reads a final set's mixed certificates as columns and
replays them without building a certificate object, with the bits of the
frozen pass's replay.

* Each benchmark workload's final set passes ``verify_final_set``, and the
  residuals of its certificates read as columns are those of the replay
  table's gather and kernel over ``read_final_set``'s certificates, as
  ``float.hex`` (``conftest.check_written_final_set``; the random games of
  ``test_random_replay.py`` go through the same check).
* With the certificate, solution and mixed-profile classes made to raise
  inside ``spegrid.cli`` and ``spegrid.solver``, a mixed and a correlated
  final set still verify, so the file path stays columnar.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

import spegrid as sg
import spegrid.cli as cli
import spegrid.solver as solver
from conftest import check_written_final_set

WORKER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  WORKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["lp_rps", "frozen_pd", "literal_pd_verify",
                                  "clusters_bos"])
def test_benchmark_final_sets_replay_as_columns(workloads, name):
    spec = workloads[name]
    game = sg.load_bundled(spec["game"])
    report = sg.solve(game, sg.SolverConfig(
        gamma=spec["gamma"], epsilon=spec["epsilon"], mode=spec["mode"],
        frozen_passes=spec["frozen_passes"]))
    assert report.converged
    check_written_final_set(report, game, spec["gamma"])


@pytest.mark.parametrize("mode", ["mixed", "correlated"])
def test_verify_builds_no_certificate_objects(mode, pd, tmp_path):
    code, _ = cli.run(cli.RunManifest(game="prisoners_dilemma", gamma=0.7,
                                      epsilon=3.2, mode=mode,
                                      snapshot_every=0,
                                      out_dir=str(tmp_path)))
    assert code == 0
    path = tmp_path / "final_set.txt"

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate object was built")

    with mock.patch.multiple(cli, MixedProfile=refuse, SupportSolution=refuse,
                             SupportCertificate=refuse), \
            mock.patch.multiple(solver, MixedProfile=refuse,
                                SupportSolution=refuse,
                                SupportCertificate=refuse):
        assert cli.verify_final_set(path, pd, 0.7)
        # the patches are live: the object reader trips on them
        with pytest.raises(AssertionError, match="object was built"):
            cli.read_final_set(path)
