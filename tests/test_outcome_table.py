"""Automaton evaluation from the outcome table keeps the loops' bits.

``automaton_value`` and ``deviation_values`` read one cached table of an
automaton's outcomes instead of walking its transitions per call.  Every
value they return must have the bytes of the per-state Python loops that
came before (``reference_automaton_value`` and
``reference_deviation_values`` in conftest), on solved, extracted and
hand-built automata: the benchmark workloads, gamma = 0, lotteries, mixed
supports with sub-tolerance mass, three players, and more states than the
dense solve takes.  The table is built from one walk over the transitions
and never handed out.
"""

import struct

import numpy as np
import pytest

import spegrid as sg
from conftest import reference_automaton_value, reference_deviation_values
from spegrid.automaton import Automaton, AutomatonState, PunishmentProfile
from test_benchmark_digests import BENCHMARKED, WORKLOADS


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_bits(M: Automaton, gamma: float):
    assert _bits(sg.automaton_value(M, gamma)) \
        == _bits(reference_automaton_value(M, gamma))
    for i in range(M.game.player_count):
        expected = reference_deviation_values(M, i, gamma)
        assert _bits(sg.deviation_values(M, i, gamma)) == _bits(expected)
        assert struct.pack("d", sg.best_deviation(M, i, gamma)) \
            == struct.pack("d", float(expected[M.initial]))


def _solved_automata(game, config, targets=5, seed=0):
    """The full automaton of a solve and a few extracted at seeded points."""
    report = sg.solve(game, config)
    C, certs = report.final, report.certificates
    automata = [sg.build_full_automaton(C, certs, game)]
    rng = np.random.default_rng(seed)
    cubes = C.cubes()
    for _ in range(targets):
        cube = cubes[rng.integers(len(cubes))]
        v = tuple(o + rng.random() * cube.side for o in cube.origin)
        automata.append(sg.extract_automaton(C, certs, v, game))
    return automata


@pytest.mark.parametrize("workload", BENCHMARKED)
def test_benchmark_automata_keep_their_bits(workload):
    spec = WORKLOADS[workload]
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    for M in _solved_automata(sg.load_bundled(spec["game"]), config):
        for gamma in (config.gamma, 0.0):
            assert_same_bits(M, gamma)


def test_gamma_zero_solve_keeps_its_bits(pd):
    config = sg.SolverConfig(gamma=0.0, epsilon=0.2, mode="mixed-clusters")
    for M in _solved_automata(pd, config):
        assert_same_bits(M, 0.0)


def test_correlated_lotteries_keep_their_bits(bos):
    # two distant cubes and a supported cube whose continuation pair falls
    # between them, so its transitions need lotteries
    C = sg.CubeSet((0.0, 0.0), 0.5, [(1, 3), (3, 1), (2, 2), (0, 0)])
    certs = {ix: sg.cube_supported_correlated(C.cube_at(ix), C, bos, 0.45)
             for ix in C.indices()}
    M = sg.extract_automaton(C, certs, (1.4, 1.4), bos)
    assert any(not isinstance(tr, int) for st in M.states
               for tr in st.transitions.values())
    for gamma in (0.45, 0.0, 0.9):
        assert_same_bits(M, gamma)


def test_hand_built_two_cycle_keeps_its_bits(pd):
    cube = sg.Hypercube((0.0, 0.0), 1.0)
    all_prof = [(a, b) for a in range(2) for b in range(2)]
    s0 = AutomatonState(cube, sg.MixedProfile.point_mass(pd, (1, 0)),
                        {p: 1 for p in all_prof})
    s1 = AutomatonState(cube, sg.MixedProfile.point_mass(pd, (0, 1)),
                        {p: 0 for p in all_prof})
    M = Automaton(pd, (s0, s1), 0, PunishmentProfile((0, 0), (0.0, 0.0)))
    for gamma in (0.5, 0.0, 0.95):
        assert_same_bits(M, gamma)


def test_three_player_pure_automata_keep_their_bits():
    # the coordination game of test_reference_equivalence
    tensor = np.zeros((2, 2, 2, 3))
    tensor[0, 0, 0] = (3.0, 3.0, 3.0)
    tensor[1, 1, 1] = (1.0, 1.0, 1.0)
    game = sg.StageGame((("a", "b"),) * 3, tensor)
    config = sg.SolverConfig(gamma=0.2, epsilon=1.5, mode="pure")
    for M in _solved_automata(game, config, targets=3):
        for gamma in (0.2, 0.0):
            assert_same_bits(M, gamma)


def random_automaton(rng, game: sg.StageGame, states: int) -> Automaton:
    """Random mixtures (some actions at zero or below PROB_TOL) and random
    transitions, a third of them lotteries over up to three states."""
    shapes = [game.action_count(i) for i in range(game.player_count)]
    built = []
    for _ in range(states):
        probs = []
        for m in shapes:
            v = rng.random(m) * (rng.random(m) < 0.7)
            v[rng.integers(m)] += 0.5
            v /= v.sum()
            if rng.random() < 0.3:
                # move all but 5e-10 of the smallest entry to another one
                low = int(np.argmin(v))
                high = int(np.argmax(np.where(np.arange(m) == low, -1.0, v)))
                v[high] += v[low] - 5e-10
                v[low] = 5e-10
            probs.append(v)
        transitions = {}
        for profile in game.profiles():
            if rng.random() < 1 / 3:
                weights = rng.dirichlet(np.ones(rng.integers(1, 4)))
                transitions[profile] = tuple(
                    (float(w), int(rng.integers(states))) for w in weights)
            else:
                transitions[profile] = int(rng.integers(states))
        built.append(AutomatonState(sg.Hypercube((0.0,) * len(shapes), 1.0),
                                    sg.MixedProfile(tuple(probs)),
                                    transitions))
    return Automaton(game, tuple(built), 0,
                     PunishmentProfile((0,) * len(shapes),
                                       (0.0,) * len(shapes)))


def random_game(rng, shape) -> sg.StageGame:
    return sg.StageGame(tuple(("a", "b", "c")[:m] for m in shape),
                        rng.uniform(-3.0, 3.0, size=shape + (len(shape),)))


# 1600 states take the iterative value path instead of the dense solve;
# with three mixing players the product order of the probabilities shows
@pytest.mark.parametrize("shape,states", [((2, 3), 1), ((2, 3), 7),
                                          ((2, 3), 60), ((2, 3), 1600),
                                          ((2, 2, 3), 40)])
def test_random_automata_keep_their_bits(shape, states):
    rng = np.random.default_rng(states)
    M = random_automaton(rng, random_game(rng, shape), states)
    for gamma in (0.6, 0.0):
        assert_same_bits(M, gamma)


class CountingDict(dict):
    """A transitions dict that counts every read of an entry."""

    reads = 0

    def __getitem__(self, key):
        CountingDict.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        CountingDict.reads += 1
        return super().__iter__()

    def items(self):
        CountingDict.reads += 1
        return super().items()

    def values(self):
        CountingDict.reads += 1
        return super().values()

    def get(self, key, default=None):
        CountingDict.reads += 1
        return super().get(key, default)


def test_transitions_are_walked_once(monkeypatch):
    rng = np.random.default_rng(3)
    game = random_game(rng, (2, 3))
    plain = random_automaton(rng, game, 12)
    M = Automaton(game, tuple(AutomatonState(st.cube, st.mixed,
                                             CountingDict(st.transitions))
                              for st in plain.states),
                  plain.initial, plain.punishments)
    monkeypatch.setattr(CountingDict, "reads", 0)
    for _ in range(3):
        for gamma in (0.6, 0.0):
            sg.automaton_value(M, gamma)
            for i in range(2):
                sg.deviation_values(M, i, gamma)
                sg.best_deviation(M, i, gamma)
    # one read per (state, pure profile): a single walk
    assert CountingDict.reads == len(M.states) * 6


def test_results_are_fresh_arrays(pd):
    config = sg.SolverConfig(gamma=0.7, epsilon=3.2, mode="mixed-correlated")
    M = _solved_automata(pd, config, targets=0)[0]
    cached = list(M._outcomes)
    assert all(not arr.flags.writeable for arr in cached)
    for gamma in (0.7, 0.0):
        calls = [lambda: sg.automaton_value(M, gamma)] + [
            lambda i=i: sg.deviation_values(M, i, gamma) for i in range(2)]
        for call in calls:
            first, second = call(), call()
            assert _bits(first) == _bits(second)
            assert not np.shares_memory(first, second)
            assert not any(np.shares_memory(first, arr) for arr in cached)
            first[...] = np.nan
            assert _bits(call()) == _bits(second)
