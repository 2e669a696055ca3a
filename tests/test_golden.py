"""Golden bytes of small runs, one set per back-end and loop variant.

Each case runs the CLI's artifact writer and compares the sha256 of
``final_set.txt`` (cube set plus every certificate, floats in repr form)
against a digest recorded before the mixed back-ends were merged into one
LP builder and one search driver.  A refactor that claims "identical
results" must keep these digests; a change that moves them on purpose must
say why and record the new ones.  The cases cover all three back-ends,
literal and frozen passes, singleton and genuinely mixed supports, and a
3x3 game.  The digests were recorded with numpy 2.4 on x86-64.

The built automata are recorded the same way: the ``to_text()`` bytes of
each benchmark workload's full automaton, and of three automata extracted
at seeded targets, recorded before the build located cubes by lattice
index and before the solve peeled transient states.
"""

import hashlib

import numpy as np
import pytest

import spegrid as sg
from spegrid.cli import RunManifest, run
from test_benchmark_digests import BENCHMARKED, WORKLOADS

CASES = [
    # (game, gamma, epsilon, mode flag, frozen passes, final_set.txt sha256)
    ("prisoners_dilemma", 0.3, 0.6, "pure", False,
     "e2c1d5d84a7fe6fa16e9aef5dae547de90a0dfcbf486b3f70a5e06b18494c30c"),
    ("prisoners_dilemma", 0.3, 0.6, "pure", True,
     "e2c1d5d84a7fe6fa16e9aef5dae547de90a0dfcbf486b3f70a5e06b18494c30c"),
    ("battle_of_sexes", 0.4, 0.5, "mixed", False,
     "8c99bddd5080a8c7ce93a9a1ba5c0a8d803d1fd5ace8e5735269bf304acb875d"),
    ("matching_pennies", 0.5, 0.8, "mixed", True,
     "8e9c22c5388bc0610dab4a1c645867d4e35096d3f13eb94f8f909078989caa9c"),
    ("prisoners_dilemma", 0.55, 0.7, "correlated", True,
     "686e5e0dea22f1605450ed489d812f99ed6e926f6edd3a42e6476e2220db8d26"),
    ("rock_paper_scissors", 0.5, 3.0, "correlated", False,
     "d888bdcf6e6be5c3d63fb29afb51b4593fd963fd26d13b4a767610fd6e99d185"),
]


@pytest.mark.parametrize("game,gamma,epsilon,mode,frozen,digest", CASES,
                         ids=[f"{c[0]}-{c[3]}-{'frozen' if c[4] else 'literal'}"
                              for c in CASES])
def test_final_set_bytes_unchanged(tmp_path, game, gamma, epsilon, mode,
                                   frozen, digest):
    code, _ = run(RunManifest(game=game, gamma=gamma, epsilon=epsilon,
                              mode=mode, frozen_passes=frozen,
                              snapshot_every=0, out_dir=str(tmp_path)))
    assert code == 0
    data = (tmp_path / "final_set.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


AUTOMATA = {
    # workload: (full automaton sha256, sha256 of three extracted ones)
    "lp_rps": (
        "b46d571e0e16b3b8b88895bb36622cd92e19fb713ea7e07e82d6afeec222d14b",
        "7c0ff07e8e5170c97405ec105ea10538ee333f782ea2f597f972bd1daff3357a"),
    "frozen_pd": (
        "b86929fdcd2dbbcda9d05728fe97d6677becd3f8703e7c128960e83bc0b27e9c",
        "14fa7e3b2a5824dd42321b96422929f5204fd8ff39204aedf74c73d121ff3fcc"),
    "literal_pd_verify": (
        "b86929fdcd2dbbcda9d05728fe97d6677becd3f8703e7c128960e83bc0b27e9c",
        "14fa7e3b2a5824dd42321b96422929f5204fd8ff39204aedf74c73d121ff3fcc"),
    "clusters_bos": (
        "f163d6f8d5d943f0af9ea8acf2ad7dedb74acb807e97ed0c98b09668769b242d",
        "19346aa60abefbff56eb597f2ab7522989d43def9b081d58fbda942bdb2034db"),
}


@pytest.mark.parametrize("workload", BENCHMARKED)
def test_automaton_bytes_unchanged(workload):
    spec = WORKLOADS[workload]
    game = sg.load_bundled(spec["game"])
    report = sg.solve(game, sg.SolverConfig(
        gamma=spec["gamma"], epsilon=spec["epsilon"], mode=spec["mode"],
        frozen_passes=spec["frozen_passes"]))
    C, certs = report.final, report.certificates
    full = sg.build_full_automaton(C, certs, game).to_text()
    rng = np.random.default_rng(0)
    cubes = C.cubes()
    texts = []
    for _ in range(3):
        cube = cubes[rng.integers(len(cubes))]
        v = tuple(o + rng.random() * cube.side for o in cube.origin)
        texts.append(sg.extract_automaton(C, certs, v, game).to_text())
    assert (hashlib.sha256(full.encode()).hexdigest(),
            hashlib.sha256("".join(texts).encode()).hexdigest()) \
        == AUTOMATA[workload]
