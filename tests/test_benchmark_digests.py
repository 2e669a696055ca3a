"""The benchmark workloads still produce their recorded bits.

``perfbench/run.py`` checks every solve against the sha256 digests in
``perfbench/reference.json``: one of ``repr(report.trace_key())`` and one of
the ``final_set.txt`` bytes.  A refactor that moves those bits would only
show up in a benchmark run; this test makes it fail the unit suite.  The
workload table is read from ``perfbench/worker.py`` and the digests from
``reference.json``, both by path and as they are.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import spegrid as sg
from spegrid.finalset import write_final_set

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARKED = ("lp_rps", "frozen_pd", "literal_pd_verify", "clusters_bos")


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload", BENCHMARKED)
def test_workload_matches_reference_digests(tmp_path, workload):
    spec = WORKLOADS[workload]
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    report = sg.solve(sg.load_bundled(spec["game"]), config)
    assert _sha256(repr(report.trace_key()).encode()) \
        == REFERENCE[workload]["trace_key"]
    C = report.final
    snap = sg.SolveSnapshot(iteration=report.iterations[-1].iteration,
                            generation=C.generation, side=C.side, base=C.base,
                            indices=tuple(C.indices()))
    path = tmp_path / "final_set.txt"
    write_final_set(path, snap, report.status, report.certificates)
    assert _sha256(path.read_bytes()) == REFERENCE[workload]["final_set"]
