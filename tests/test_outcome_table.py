"""Automaton evaluation from the outcome table: the loops' bits where the
arithmetic is the loops', an exact oracle where it is not.

``automaton_value`` and ``deviation_values`` read one cached table of an
automaton's outcomes instead of walking its transitions per call.  Up to
``_POLICY_STATES`` states, and at gamma = 0, every value
``automaton_value`` returns must have the bytes of the per-state Python
loops that came before (``reference_automaton_value`` in conftest), and so
must ``deviation_values`` where it takes the max (gamma = 0), against
``reference_deviation_values``.  Below that cut-off ``deviation_values``
runs policy iteration: there its values must be a fixed point of the
Bellman step within 1e-12, and on automata of at most five states match
the exact fractions oracle within 1e-12.  Above the cut-off both peel the
transient states off a core (``Automaton._peel``): every peeled state
meets its own equation within 1e-12, and the core keeps the bits of the
reference loops run on the core alone where its rule is theirs.  The
cases: solved, extracted and hand-built automata, the benchmark
workloads, gamma = 0, lotteries, mixed supports with sub-tolerance mass,
three players, more states than the dense solve takes, small automata
peeled by lowering the cut-off, and a player with one action, whose
deviation values are the value's column.  The table is built from one
walk over the transitions and never handed out.
"""

import struct

import numpy as np
import pytest

import spegrid as sg
from conftest import (deviation_action_values, exact_automaton_value,
                      exact_deviation_values, reference_automaton_value,
                      reference_deviation_values, value_residual)
from spegrid import automaton
from spegrid.automaton import (_POLICY_STATES, Automaton, AutomatonState,
                               PunishmentProfile)
from test_benchmark_digests import BENCHMARKED, WORKLOADS


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_bits(M: Automaton, gamma: float):
    """The loops' bits for the value and for the deviation values where the
    library takes the max; policy iteration's values are checked by
    ``assert_optimal_deviation`` instead, and a peeled automaton (more than
    ``_POLICY_STATES`` states, gamma > 0) by ``assert_peeled``."""
    for i in range(M.game.player_count):
        assert struct.pack("d", sg.best_deviation(M, i, gamma)) \
            == struct.pack("d", float(sg.deviation_values(M, i, gamma)[
                M.initial]))
    if gamma > 0.0 and len(M.states) > automaton._POLICY_STATES:
        assert_peeled(M, gamma)
        return
    assert _bits(sg.automaton_value(M, gamma)) \
        == _bits(reference_automaton_value(M, gamma))
    for i in range(M.game.player_count):
        V = sg.deviation_values(M, i, gamma)
        if gamma == 0.0:
            assert _bits(V) == _bits(reference_deviation_values(M, i, gamma))
        else:
            assert_optimal_deviation(M, i, gamma, V)


def assert_peeled(M: Automaton, gamma: float):
    """Every peeled state meets its own equation within 1e-12, given the
    values it leads to.  The core keeps the bits of the reference loops run
    on the core alone (``core_automaton``): its value always, and each
    deviator's values when the core iterates (more than ``_POLICY_STATES``
    states); a smaller core puts each deviator at the optimum
    (``assert_optimal_deviation``).  Solved densely (at most 1500 states),
    the whole value is also within 1e-12 of the dense reference."""
    core = M._peel.groups[0]
    peeled = np.setdiff1d(np.arange(len(M.states)), core)
    core_M = core_automaton(M)
    u = sg.automaton_value(M, gamma)
    assert value_residual(M, gamma, u)[peeled].max(initial=0.0) <= 1e-12
    assert _bits(u[core]) == _bits(reference_automaton_value(core_M, gamma))
    if len(M.states) <= 1500:
        assert np.max(np.abs(u - reference_automaton_value(M, gamma))) \
            <= 1e-12
    for i in range(M.game.player_count):
        V = sg.deviation_values(M, i, gamma)
        step = deviation_action_values(M, i, gamma, V).max(axis=1)
        assert np.abs(step - V)[peeled].max(initial=0.0) <= 1e-12
        if core.size <= automaton._POLICY_STATES:
            assert_optimal_deviation(M, i, gamma, V)
        else:
            assert _bits(V[core]) \
                == _bits(reference_deviation_values(core_M, i, gamma))


def core_automaton(M: Automaton) -> Automaton:
    """The core of ``M._peel`` as an automaton of its own, its states in
    slot order.  The core is forward-closed, so every transition stays in
    it, and its outcome rows and entries keep their order."""
    core, slot = M._peel.groups[0], M._peel.slot

    def move(tr):
        return int(slot[tr]) if isinstance(tr, int) \
            else tuple((w, int(slot[t])) for w, t in tr)

    states = tuple(AutomatonState(M.states[q].cube, M.states[q].mixed,
                                  {profile: move(tr) for profile, tr
                                   in M.states[q].transitions.items()})
                   for q in core)
    return Automaton(M.game, states, 0, M.punishments)


def assert_optimal_deviation(M: Automaton, player: int, gamma: float, V):
    """V is a fixed point of the deviator's Bellman step within 1e-12 and,
    on at most five states, the exact optimum within 1e-12: at least 500
    times tighter than value iteration's own error, gamma * 1e-9."""
    step = deviation_action_values(M, player, gamma, V).max(axis=1)
    assert np.max(np.abs(step - V)) <= 1e-12
    if len(M.states) <= 5:
        exact = exact_deviation_values(M, player, gamma)
        assert np.max(np.abs(np.array([float(x) for x in exact]) - V)) \
            <= 1e-12


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
def test_benchmark_automata_keep_their_bits(workload, monkeypatch):
    spec = WORKLOADS[workload]
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    for M in _solved_automata(sg.load_bundled(spec["game"]), config):
        for gamma in (config.gamma, 0.0):
            assert_same_bits(M, gamma)
        assert_no_worse_than_following(M, config.gamma)
        # the full automata of 308 and 624 states are peeled
        if len(M.states) > _POLICY_STATES:
            assert_peel_agrees(M, config.gamma, monkeypatch)


def assert_no_worse_than_following(M: Automaton, gamma: float):
    """Following the automaton is one of the deviator's strategies."""
    u = sg.automaton_value(M, gamma)
    for i in range(M.game.player_count):
        assert np.all(sg.deviation_values(M, i, gamma) >= u[:, i] - 1e-12)


def assert_peel_agrees(M: Automaton, gamma: float, monkeypatch):
    """The peeled value and deviations are within 1e-12 of the whole
    automaton's dense solve and policy iteration (the cut-off raised)."""
    players = range(M.game.player_count)
    peeled = [sg.automaton_value(M, gamma)] + [
        sg.deviation_values(M, i, gamma) for i in players]
    monkeypatch.setattr(automaton, "_POLICY_STATES", len(M.states))
    whole = [sg.automaton_value(M, gamma)] + [
        sg.deviation_values(M, i, gamma) for i in players]
    monkeypatch.undo()
    for a, b in zip(peeled, whole):
        assert np.max(np.abs(a - b)) <= 1e-12


def assert_iteration_agrees(M: Automaton, gamma: float, monkeypatch):
    """Value iteration, which solves a core above the cut-off, stops within
    gamma * 1e-9 of policy iteration's values on the same automaton."""
    players = range(M.game.player_count)
    iterated = [sg.deviation_values(M, i, gamma) for i in players]
    monkeypatch.setattr(automaton, "_POLICY_STATES", len(M.states))
    for i in players:
        solved = sg.deviation_values(M, i, gamma)
        assert_optimal_deviation(M, i, gamma, solved)
        assert np.max(np.abs(iterated[i] - solved)) <= gamma * 1e-9
    monkeypatch.undo()


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


def random_automaton(rng, game: sg.StageGame, states: int,
                     tiny: float = 0.3) -> Automaton:
    """Random mixtures (some actions at zero, a ``tiny`` share of states
    with one below PROB_TOL) and random transitions, a third of them
    lotteries over up to three states."""
    shapes = [game.action_count(i) for i in range(game.player_count)]
    built = []
    for _ in range(states):
        probs = []
        for m in shapes:
            v = rng.random(m) * (rng.random(m) < 0.7)
            v[rng.integers(m)] += 0.5
            v /= v.sum()
            if rng.random() < tiny:
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
# with three mixing players the product order of the probabilities shows;
# five states or fewer meet the exact deviation oracle
@pytest.mark.parametrize("shape,states", [((2, 3), 1), ((2, 3), 7),
                                          ((2, 3), 60), ((2, 3), 1600),
                                          ((2, 2, 3), 40), ((2, 3), 5),
                                          ((2, 2, 3), 4)])
def test_random_automata_keep_their_bits(shape, states):
    rng = np.random.default_rng(states)
    M = random_automaton(rng, random_game(rng, shape), states)
    for gamma in (0.6, 0.0):
        assert_same_bits(M, gamma)


# without sub-tolerance mass: both evaluations drop mass at or below
# PROB_TOL, the value also the deviator's own, so a row of the value then
# carries 1 - 5e-10 of the probability and V >= u holds only to about that
@pytest.mark.parametrize("shape,states", [((2, 3), 3), ((3, 3), 5),
                                          ((2, 2), 17), ((3, 2), 64),
                                          ((2, 3), _POLICY_STATES)])
def test_random_deviation_values_are_optimal(shape, states):
    rng = np.random.default_rng(1000 + states)
    M = random_automaton(rng, random_game(rng, shape), states, tiny=0.0)
    for gamma in (0.3, 0.6, 0.95):
        for i in range(M.game.player_count):
            assert_optimal_deviation(M, i, gamma,
                                     sg.deviation_values(M, i, gamma))
        assert_no_worse_than_following(M, gamma)


# following the automaton is the decision problem of a deviator with one
# action; without sub-tolerance mass (a one-action mixture has none) both
# read the same rows, and 200 states are peeled
@pytest.mark.parametrize("shape,states", [((1, 3), 20), ((3, 1), 20),
                                          ((1, 2), 20), ((1, 3), 200),
                                          ((3, 1), 200), ((1, 2), 200)])
def test_a_one_action_deviator_gets_the_value(shape, states):
    rng = np.random.default_rng(4000 + states)
    M = random_automaton(rng, random_game(rng, shape), states, tiny=0.0)
    i = shape.index(1)
    for gamma in (0.0, 0.3, 0.95):
        u = sg.automaton_value(M, gamma)
        assert np.max(np.abs(sg.deviation_values(M, i, gamma) - u[:, i])) \
            <= 1e-12


def layered_automaton(rng, game: sg.StageGame, states: int,
                      core: int) -> Automaton:
    """``random_automaton`` with its states ranked at random: the top
    ``core`` ranks move only among themselves, and a state of a lower rank
    only to itself (about a third of its moves) or to a higher rank, so the
    peel leaves a core of at most ``core`` states."""
    M = random_automaton(rng, game, states)
    rank = rng.permutation(states)
    of_rank = np.argsort(rank)
    floor = states - core

    def move(q, t):
        k = rank[q]
        if k >= floor:
            return t if rank[t] >= floor else int(
                of_rank[rng.integers(floor, states)])
        if k + 1 == states or rng.random() < 1 / 3:
            return q
        return t if rank[t] > k else int(of_rank[rng.integers(k + 1, states)])

    built = []
    for q, st in enumerate(M.states):
        transitions = {}
        for profile, tr in st.transitions.items():
            transitions[profile] = move(q, tr) if isinstance(tr, int) \
                else tuple((w, move(q, t)) for w, t in tr)
        built.append(AutomatonState(st.cube, st.mixed, transitions))
    return Automaton(game, tuple(built), M.initial, M.punishments)


# at most five states meet the exact deviation oracle, the rest the Bellman
# check; the exact value oracle takes them all
@pytest.mark.parametrize("shape,states,core", [((2, 3), 5, 2), ((3, 2), 4, 1),
                                               ((2, 2), 5, 0),
                                               ((2, 2, 3), 4, 2),
                                               ((2, 3), 12, 4),
                                               ((3, 3), 10, 3)])
def test_forced_peel_meets_the_exact_oracles(shape, states, core,
                                             monkeypatch):
    rng = np.random.default_rng(2000 + 16 * states + core)
    M = layered_automaton(rng, random_game(rng, shape), states, core)
    groups = M._peel.groups
    assert len(groups) > 1 and groups[0].size <= core
    # peel every automaton larger than its core; solve the core as today
    monkeypatch.setattr(automaton, "_POLICY_STATES", groups[0].size)
    for gamma in (0.3, 0.6, 0.95):
        u = sg.automaton_value(M, gamma)
        assert np.max(np.abs(u - exact_automaton_value(M, gamma))) <= 1e-12
        for i in range(M.game.player_count):
            assert_optimal_deviation(M, i, gamma,
                                     sg.deviation_values(M, i, gamma))


def peel_groups(M: Automaton) -> np.ndarray:
    """The group of each state in ``M._peel`` (0: the core)."""
    group = np.full(len(M.states), -1)
    for g, members in enumerate(M._peel.groups):
        assert np.all(group[members] == -1)
        group[members] = g
    assert np.all(group >= 0)
    return group


@pytest.mark.parametrize("seed", range(40))
def test_peeled_states_move_to_later_layers_the_core_or_themselves(seed):
    rng = np.random.default_rng(3000 + seed)
    states = int(rng.integers(1, 60))
    game = random_game(rng, ((2, 3), (2, 2), (2, 2, 3))[seed % 3])
    M = layered_automaton(rng, game, states, int(rng.integers(0, states))) \
        if seed % 4 else random_automaton(rng, game, states)
    group, peel, table = peel_groups(M), M._peel, M._outcomes
    predecessors = [set() for _ in M.states]
    for q, st in enumerate(M.states):
        for tr in st.transitions.values():
            for _, t in ((1.0, tr),) if isinstance(tr, int) else tr:
                # a later layer or the core has a smaller group
                assert t == q or group[t] < group[q] or group[q] == 0
                assert group[q] or not group[t]
                if t != q:
                    predecessors[t].add(q)
    # the peel is maximal: each core state has another core predecessor
    for q in peel.groups[0]:
        assert any(group[r] == 0 for r in predecessors[q])
    for members in peel.groups:
        assert np.array_equal(peel.slot[members], np.arange(members.size))
    # the entries of each group in walk order, every entry once
    sources = group[table.state[table.row[peel.entries]]]
    assert np.array_equal(np.sort(peel.entries), np.arange(len(table.row)))
    for g in range(len(peel.groups)):
        chunk = peel.entries[peel.starts[g]:peel.starts[g + 1]]
        assert np.all(sources[peel.starts[g]:peel.starts[g + 1]] == g)
        assert np.all(np.diff(chunk) > 0)


def test_small_automata_are_not_peeled():
    spec = WORKLOADS["lp_rps"]   # a full automaton of 44 states
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    for M in _solved_automata(sg.load_bundled(spec["game"]), config,
                              targets=2):
        assert len(M.states) <= _POLICY_STATES
        sg.automaton_value(M, 0.7)
        sg.deviation_values(M, 0, 0.7)
        assert "_peel" not in vars(M)


def test_iteration_just_above_the_cut_off_agrees(monkeypatch):
    rng = np.random.default_rng(_POLICY_STATES)
    M = random_automaton(rng, random_game(rng, (2, 3)), _POLICY_STATES + 1)
    for gamma in (0.6, 0.95):
        assert_iteration_agrees(M, gamma, monkeypatch)


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
