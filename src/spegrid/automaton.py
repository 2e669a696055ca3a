"""Finite-automaton strategy profiles: extraction, evaluation, simulation.

Hypercubes of a converged set become automaton states.  Each state plays
the mixed action profile of its cube's certificate; in-support outcomes
transition to the cube containing the promised continuation (or, with
public correlation, to a lottery over hull-vertex cubes that averages to
it), and a unilateral out-of-support deviation by player i transitions to
player i's punishment state.  Deviations inside the support of a mixed
action are not observable, so they follow the equilibrium transition.

Automata are immutable after extraction; evaluation, deviation values and
simulation are read-only and may run concurrently.  The simulator owns its
random stream: one seeded generator serves both mixed-action sampling and
the public signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .feasibility import FEAS_TOL
from .game import PROB_TOL, MixedProfile, StageGame, check_gamma, is_integer
from .geometry import (CubeSet, Hypercube, get_halfplanes, hull_vertices,
                       locate_index)
from .solver import _hull_row

_LOCATE_TOL = 1e-6   # continuations carry LP tolerance; widen point location
# an automaton above _POLICY_STATES states is peeled; policy iteration (one
# dense solve per policy) takes a problem of up to _POLICY_STATES states with
# more than one action, or _DENSE_STATES with one (the value); a larger one,
# whose dense matrix of k states would hold 8k^2 bytes, iterates
_POLICY_STATES = 128
_DENSE_STATES = 1500
_SWITCH_TOL = 1e-12  # a policy switch must gain more than this


@dataclass(frozen=True)
class AutomatonState:
    cube: Hypercube
    mixed: MixedProfile
    # every pure profile -> a state index or a lottery of (weight, state index)
    transitions: dict


@dataclass(frozen=True)
class PunishmentProfile:
    """Per-player punishment state and the payoff floor it enforces."""

    states: tuple[int, ...]
    floors: tuple[float, ...]


@dataclass(frozen=True)
class Automaton:
    """States, initial state, decision profile and transition function."""

    game: StageGame
    states: tuple[AutomatonState, ...]
    initial: int
    punishments: PunishmentProfile

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def _outcomes(self) -> "_OutcomeTable":
        """The outcome table both evaluations read, built on first use."""
        return _outcome_table(self)

    @cached_property
    def _peel(self) -> "_Peel":
        """The transient layers of the outcome table's transition graph,
        shared by the value and both deviators, built on first use."""
        return _peel_layers(self._outcomes, len(self.states))

    def supports(self, state: int) -> tuple[tuple[int, ...], ...]:
        return self.states[state].mixed.supports

    def to_text(self) -> str:
        """Structured text serialization of the automaton."""
        game = self.game
        lines = [f"states: {len(self.states)}", f"initial: {self.initial}"]
        for i, q in enumerate(self.punishments.states):
            lines.append(f"punishment_state {i + 1}: {q} "
                         f"floor {self.punishments.floors[i]!r}")
        for q, st in enumerate(self.states):
            origin = " ".join(repr(x) for x in st.cube.origin)
            lines.append(f"state {q} cube_origin {origin} side {st.cube.side!r}")
            for i in range(game.player_count):
                probs = " ".join(
                    f"{game.actions[i][a]}:{float(st.mixed.probs[i][a])!r}"
                    for a in st.mixed.support(i))
                lines.append(f"  play {i + 1}: {probs}")
            for profile in sorted(st.transitions):
                labels = ",".join(game.label_profile(profile))
                tr = st.transitions[profile]
                if isinstance(tr, int):
                    lines.append(f"  on {labels} -> {tr}")
                else:
                    lot = " ".join(f"{w!r}:{t}" for w, t in tr)
                    lines.append(f"  on {labels} -> lottery {lot}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graph description (DOT) for visualization."""
        game = self.game
        out = ["digraph automaton {", "  rankdir=LR;"]
        for q, st in enumerate(self.states):
            parts = []
            for i in range(game.player_count):
                supp = st.mixed.support(i)
                if len(supp) == 1:
                    parts.append(game.actions[i][supp[0]])
                else:
                    parts.append("{" + ",".join(game.actions[i][a]
                                                for a in supp) + "}")
            shape = "doublecircle" if q == self.initial else "circle"
            out.append(f'  q{q} [label="{"/".join(parts)}", shape={shape}];')
        for q, st in enumerate(self.states):
            grouped: dict = {}
            for profile in sorted(st.transitions):
                tr = st.transitions[profile]
                label = ",".join(game.label_profile(profile))
                if isinstance(tr, int):
                    grouped.setdefault(tr, []).append(label)
                else:
                    for w, t in tr:
                        grouped.setdefault(t, []).append(f"{label} ({w:.3f})")
            for target, labels in sorted(grouped.items()):
                text = "\\n".join(labels)
                out.append(f'  q{q} -> q{target} [label="{text}"];')
        out.append("}")
        return "\n".join(out) + "\n"


def _build_states(C: CubeSet, certificates: dict, game: StageGame,
                  seeds: Sequence[tuple[int, ...]], everything: bool,
                  punish_cubes: Sequence[tuple[int, ...]]) -> tuple[list, dict]:
    """Worklist construction of states and transitions.

    Returns the state list (cube index, mixed profile, transitions) in
    discovery order plus the index map.  With ``everything`` set, all cubes
    become states regardless of reachability.  Continuations and hull
    vertices are located as lattice indices.
    """
    state_of: dict = {}
    order: list[tuple[int, ...]] = []

    def intern(ix) -> int:
        if ix not in state_of:
            state_of[ix] = len(order)
            order.append(ix)
        return state_of[ix]

    for ix in seeds:
        intern(ix)
    punish_states = [intern(pc) for pc in punish_cubes]
    if everything:
        for ix in C.indices():
            intern(ix)

    profiles = list(game.profiles())
    built: list = []
    cursor = 0
    while cursor < len(order):
        ix = order[cursor]
        cursor += 1
        cert = certificates.get(ix)
        if cert is None:
            raise ValueError(f"cube {ix} has no support certificate")
        mixed = cert.mixed_profile(game)
        supports = mixed.supports
        transitions: dict = {}
        for profile in profiles:
            for i, a in enumerate(profile):
                if a not in supports[i]:
                    # unilateral deviations are punished; simultaneous ones
                    # are off-equilibrium and never reached, routed to the
                    # lowest deviator's punishment state for totality
                    transitions[profile] = punish_states[i]
                    break
            else:
                point = cert.continuation_point(profile)
                target = locate_index(point, C, tol=_LOCATE_TOL)
                if target is not None:
                    transitions[profile] = intern(target)
                    continue
                entries = []
                for weight, vertex in decompose_into_vertices(point, C):
                    vc = locate_index(vertex, C, tol=1e-9)
                    if vc is None:
                        raise RuntimeError(
                            f"hull vertex {vertex} is outside the union")
                    entries.append((weight, intern(vc)))
                transitions[profile] = tuple(entries)
        built.append((ix, mixed, transitions))
    return built, state_of


def _assemble(C: CubeSet, certificates: dict, game: StageGame,
              seeds, everything: bool, initial_index) -> Automaton:
    punish_cubes, floors = C.min_cells(), C.min_origin()
    built, state_of = _build_states(C, certificates, game, seeds, everything,
                                    punish_cubes)
    states = tuple(
        AutomatonState(cube=C.cube_at(ix), mixed=mixed,
                       transitions=transitions)
        for ix, mixed, transitions in built)
    return Automaton(
        game=game, states=states, initial=state_of[initial_index],
        punishments=PunishmentProfile(
            states=tuple(state_of[pc] for pc in punish_cubes),
            floors=floors))


def extract_automaton(C: CubeSet, certificates: dict, v,
                      game: StageGame) -> Automaton:
    """Construct the automaton that approximately induces payoff profile v.

    v must lie in the union; every reachable cube must hold a certificate.
    The stored certificates are reused rather than re-derived so extraction
    is deterministic.
    """
    six = locate_index(v, C, tol=1e-9)
    if six is None:
        raise ValueError(f"target payoff profile {tuple(v)} lies outside the union")
    return _assemble(C, certificates, game, seeds=[six], everything=False,
                     initial_index=six)


def build_full_automaton(C: CubeSet, certificates: dict,
                         game: StageGame) -> Automaton:
    """One automaton whose states are all cubes of the set; used to check
    every cube's payoff and deviation bounds in a single sweep."""
    if not len(C):
        raise ValueError("an empty cube set has no automaton")
    first = C.indices()[0]
    return _assemble(C, certificates, game, seeds=[first], everything=True,
                     initial_index=first)


# -- evaluation ---------------------------------------------------------------

class _OutcomeTable(NamedTuple):
    """An automaton's outcomes as read-only flat arrays, from one walk over
    its transitions.  Row q * K + k is state q with the k-th of the K pure
    profiles (lexicographic): its ``state``, ``profile`` index k, each
    player's action ``actions[i]`` and its probability ``probs[i]`` at q
    (zero at or below PROB_TOL).  Each transition entry, in walk order, has
    its ``row``, ``next`` state and lottery ``weight``."""

    state: np.ndarray
    profile: np.ndarray
    actions: np.ndarray
    probs: np.ndarray
    row: np.ndarray
    next: np.ndarray
    weight: np.ndarray


def _outcome_table(M: Automaton) -> _OutcomeTable:
    profiles = list(M.game.profiles())
    rows, nexts, weights = [], [], []
    for row, tr in enumerate(st.transitions[p] for st in M.states
                             for p in profiles):
        # a plain transition is a lottery of one state with weight 1.0
        for w, t in ((1.0, tr),) if isinstance(tr, int) else tr:
            rows.append(row)
            nexts.append(t)
            weights.append(w)
    Q, K = len(M.states), len(profiles)
    actions = np.array(profiles).T
    probs = np.array([np.array([st.mixed.probs[i] for st in M.states])[:, a]
                      for i, a in enumerate(actions)]).reshape(-1, Q * K)
    table = _OutcomeTable(
        np.repeat(np.arange(Q), K), np.tile(np.arange(K), Q),
        np.tile(actions, Q), np.where(probs > PROB_TOL, probs, 0.0),
        np.array(rows, dtype=np.int64), np.array(nexts, dtype=np.int64),
        np.array(weights))
    for arr in table:
        arr.setflags(write=False)
    return table


class _Peel(NamedTuple):
    """An automaton's states in solve order.  Layer 0 is the states with no
    predecessor but themselves, over every outcome row; layer k + 1 those
    with none but themselves once layers 0..k are gone; the forward-closed
    rest is the core.  ``groups`` holds the core first, then the layers from
    last to first, so every transition of a layer's state goes to itself or
    to an earlier group.  ``slot`` is each state's position in its group;
    ``entries`` lists the table's transition entries by their source's
    group, in walk order within one, and group g's entries are
    ``entries[starts[g]:starts[g + 1]]``."""

    groups: tuple
    slot: np.ndarray
    entries: np.ndarray
    starts: np.ndarray


def _peel_layers(table: _OutcomeTable, Q: int) -> _Peel:
    # Kahn's algorithm in frontier rounds over a CSR of the transitions,
    # self-loops dropped; a repeated edge counts once per entry both ways.
    # Entries are in walk order, so their sources are sorted.
    src = table.state[table.row]
    away = src != table.next
    heads = table.next[away]
    ptr = np.searchsorted(src[away], np.arange(Q + 1))
    indeg = np.bincount(heads, minlength=Q)
    layers = []
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        layers.append(frontier)
        lo, counts = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        first = np.cumsum(counts) - counts
        out = heads[np.arange(counts.sum()) + np.repeat(lo - first, counts)]
        targets, drop = np.unique(out, return_counts=True)
        indeg[targets] -= drop
        frontier = targets[indeg[targets] == 0]
    group = np.zeros(Q, dtype=np.int64)
    for k, layer in enumerate(layers):
        group[layer] = len(layers) - k
    groups = (np.flatnonzero(group == 0),) + tuple(reversed(layers))
    slot = np.empty(Q, dtype=np.int64)
    for members in groups:
        slot[members] = np.arange(members.size)
    entries = np.argsort(group[src], kind="stable")
    starts = np.searchsorted(group[src][entries], np.arange(len(groups) + 1))
    peel = _Peel(groups, slot, entries, starts)
    for arr in (*groups, slot, entries, starts):
        arr.setflags(write=False)
    return peel


def _weighted_entries(table: _OutcomeTable, p: np.ndarray, bins: np.ndarray):
    """(bin, next state, probability) of each transition entry of a row with
    p > 0, in walk order; a lottery entry gets its weight's share of p."""
    keep = p[table.row] > 0.0
    rows = table.row[keep]
    return bins[rows], table.next[keep], p[rows] * table.weight[keep]


def _peeled_entries(M: Automaton, p: np.ndarray, bins: np.ndarray, A: int):
    """``_weighted_entries`` per group of ``M._peel``: the group's states,
    and each entry's bin (slot * A + bin % A, with A bins per state), next
    state and probability."""
    table, peel = M._outcomes, M._peel
    keep = p[table.row[peel.entries]] > 0.0
    order = peel.entries[keep]
    bounds = np.concatenate(([0], np.cumsum(keep)))[peel.starts]
    rows = table.row[order]
    local = peel.slot[bins[rows] // A] * A + bins[rows] % A
    nexts, wts = table.next[order], p[rows] * table.weight[order]
    return [(members, local[lo:hi], nexts[lo:hi], wts[lo:hi])
            for members, lo, hi in zip(peel.groups, bounds[:-1], bounds[1:])]


def _back_substitute(u: np.ndarray, stage: np.ndarray, layers,
                     gamma: float) -> np.ndarray:
    """Fill u on each layer from the groups solved before it, one vectorised
    step per layer.  ``stage`` is (Q, A, c): A actions, c value columns.
    With c_a = (1 - gamma) stage + gamma E[u(next)] over the transitions
    leaving the state and w_a the mass of its self-loop, u = max_a c_a /
    (1 - gamma w_a), the fixed point of u = max_a c_a + gamma w_a u."""
    A, cols = stage.shape[1:]
    for members, bins, nexts, wts in layers:
        size = members.size * A
        loop = nexts == members[bins // A]
        away, out = bins[~loop], nexts[~loop]
        ahead = np.stack([np.bincount(away, weights=wts[~loop] * u[out, c],
                                      minlength=size) for c in range(cols)],
                         axis=1)
        kept = np.bincount(bins[loop], weights=wts[loop], minlength=size)
        total = (1.0 - gamma) * stage[members].reshape(size, cols) \
            + gamma * ahead
        u[members] = (total / (1.0 - gamma * kept)[:, None]).reshape(
            members.size, A, cols).max(axis=1)
    return u


def automaton_value(M: Automaton, gamma: float) -> np.ndarray:
    """Per-state discounted average payoff profiles.

    Solves u(q) = (1-g) E[r] + g E[u(next)] over all states; lotteries are
    resolved in expectation.  Unique since gamma < 1.  This is the
    deviator's decision problem (``_evaluate``) with one action and one
    value column per player.
    """
    check_gamma(gamma)
    table = M._outcomes
    Q, n = len(M.states), M.game.player_count
    p = table.probs.prod(axis=0)   # player order: the rounding depends on it
    on = np.flatnonzero(p > 0.0)
    stage = p[on, None] * M.game.payoffs.reshape(-1, n)[table.profile[on]]
    R = np.stack([np.bincount(table.state[on], weights=stage[:, c],
                              minlength=Q) for c in range(n)], axis=1)
    return _evaluate(M, R[:, None, :], p, table.state, gamma)


def deviation_values(M: Automaton, player: int, gamma: float) -> np.ndarray:
    """Per-state value of the best unilateral deviation by `player`.

    The opponents' play is fixed by the automaton.  The deviator maximises
    over all own pure actions; out-of-support actions transition to the
    deviator's punishment state, in-support ones follow the equilibrium
    transitions.  Solved by ``_evaluate`` with one value column; a player
    that is not an integer in ``[0, player_count)`` is a ValueError.
    """
    game = M.game
    if not is_integer(player) or not 0 <= player < game.player_count:
        raise ValueError(f"player {player!r} is not one of the game's "
                         f"{game.player_count} players")
    check_gamma(gamma)
    table = M._outcomes
    Q, A = len(M.states), game.action_count(player)
    bins = table.state * A + table.actions[player]
    p = np.delete(table.probs, player, axis=0).prod(axis=0)
    on = np.flatnonzero(p > 0.0)
    stage = p[on] * game.payoffs[..., player].ravel()[table.profile[on]]
    imm = np.bincount(bins[on], weights=stage, minlength=Q * A).reshape(Q, A)
    return _evaluate(M, imm[:, :, None], p, bins, gamma)[:, 0]


def _evaluate(M: Automaton, stage: np.ndarray, p: np.ndarray,
              bins: np.ndarray, gamma: float) -> np.ndarray:
    """Optimal values (Q, c) of a decision problem on M's outcome table:
    ``stage`` (Q, A, c) is the expected stage payoff per state, action and
    value column, ``p`` each outcome row's probability and ``bins`` its
    state * A + action.  At gamma = 0 the best stage payoff.  Up to
    ``_POLICY_STATES`` states ``_solve`` takes the whole automaton; above,
    its core (``Automaton._peel``), then ``_back_substitute`` the layers."""
    Q, A, cols = stage.shape
    if gamma == 0.0:
        return stage.max(axis=1)
    if Q <= _POLICY_STATES:
        return _solve(stage, *_weighted_entries(M._outcomes, p, bins), gamma)
    (members, srcs, dsts, wts), *layers = _peeled_entries(M, p, bins, A)
    u = np.empty((Q, cols))
    u[members] = _solve(stage[members], srcs, M._peel.slot[dsts], wts, gamma)
    return _back_substitute(u, stage, layers, gamma)


def _solve(stage: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
           wts: np.ndarray, gamma: float) -> np.ndarray:
    """Optimal values (Q, c) for stage payoffs ``stage`` (Q, A, c), c = 1 if
    A > 1, and transition mass ``wts`` from bin ``srcs`` (state * A +
    action) to state ``dsts``.  Up to ``_DENSE_STATES`` states with one
    action or ``_POLICY_STATES`` with more, by policy iteration on the
    dense (Q * A) x Q transition matrix: from the myopic policy, one linear
    solve per policy, and a state switches action only for a gain above
    ``_SWITCH_TOL``, which rules out cycling on rounding ties.  One action
    is one policy: a single solve.  Above the limits, by value iteration."""
    Q, A, cols = stage.shape
    r = (1.0 - gamma) * stage.reshape(Q * A, cols)
    if Q <= (_DENSE_STATES if A == 1 else _POLICY_STATES):
        T = np.bincount(srcs * Q + dsts, weights=wts,
                        minlength=Q * A * Q).reshape(Q * A, Q)
        # a policy is its rows of T and r; one action has one, every row
        if A == 1:
            rows = slice(None)
        else:
            first = np.arange(0, Q * A, A)   # each state's first row
            rows = first + r[:, 0].reshape(Q, A).argmax(axis=1)
        for _ in range(10000):
            V = np.linalg.solve(np.eye(Q) - gamma * T[rows], r[rows])
            if A == 1:
                return V
            values = r[:, 0] + gamma * (T @ V[:, 0])
            best = first + values.reshape(Q, A).argmax(axis=1)
            switch = values[best] > values[rows] + _SWITCH_TOL
            if not switch.any():
                return V
            rows = np.where(switch, best, rows)
        raise RuntimeError("policy iteration did not converge")
    # two rules, each kept for its bits: one action (the value) starts at
    # the stage payoff and stops at a sup-norm step of 1e-9; more (a
    # deviator) start at zero and stop at 1e-9 * (1 - gamma), which bounds
    # the error by gamma * 1e-9
    u, tol = (stage[:, 0].copy(), 1e-9) if A == 1 \
        else (np.zeros((Q, cols)), 1e-9 * (1.0 - gamma))
    ahead = np.empty((Q * A, cols))
    for _ in range(1000000):
        for c in range(cols):
            ahead[:, c] = np.bincount(srcs, weights=wts * u[dsts, c],
                                      minlength=Q * A)
        new = (r + gamma * ahead).reshape(Q, A, cols).max(axis=1)
        step = np.max(np.abs(new - u))
        u = new
        if step <= tol:
            return u
    raise RuntimeError("value iteration did not converge")


def best_deviation(M: Automaton, player: int, gamma: float) -> float:
    """Value of the deviator's best strategy starting at the initial state."""
    return float(deviation_values(M, player, gamma)[M.initial])


# -- public correlation -----------------------------------------------------------

def decompose_into_vertices(point, C: CubeSet):
    """Write a point of the convex hull of the union as a lottery over at
    most three hull vertices (each of which is a cube vertex, hence lies
    inside a cube of the set).

    Fan triangulation anchored at the lexicographically smallest hull
    vertex; the triangle whose least weight is largest gives the weights,
    clipped at zero and renormalised.  Raises ValueError unless every hull
    row (``_hull_row``) is at most FEAS_TOL, the test replay makes of a
    continuation, so a point just outside the hull may pass.  The hull
    comes from the cube set's cache.
    """
    x, y = float(point[0]), float(point[1])
    if any(_hull_row(*pl, x, y) > FEAS_TOL for pl in get_halfplanes(C)):
        raise ValueError(f"point {tuple(point)} lies outside the convex hull")
    verts = hull_vertices(C)  # at least four: every cube has positive side
    for v in verts:
        if abs(v[0] - x) <= 1e-9 and abs(v[1] - y) <= 1e-9:
            return [(1.0, v)]
    anchor = verts[0]
    best = None
    for k in range(1, len(verts) - 1):
        v1, v2 = verts[k], verts[k + 1]
        det = (v1[0] - anchor[0]) * (v2[1] - anchor[1]) \
            - (v2[0] - anchor[0]) * (v1[1] - anchor[1])
        if abs(det) < 1e-15:
            continue
        b = ((x - anchor[0]) * (v2[1] - anchor[1])
             - (v2[0] - anchor[0]) * (y - anchor[1])) / det
        c = ((v1[0] - anchor[0]) * (y - anchor[1])
             - (x - anchor[0]) * (v1[1] - anchor[1])) / det
        a = 1.0 - b - c
        low = min(a, b, c)
        if best is None or low > best[0]:
            best = (low, a, b, c, anchor, v1, v2)
        if low >= -1e-9:
            break
    if best is None:
        raise ValueError(f"no hull triangle contains {tuple(point)}")
    _, a, b, c, v0, v1, v2 = best
    pairs = [(max(a, 0.0), v0), (max(b, 0.0), v1), (max(c, 0.0), v2)]
    pairs = [(w, v) for w, v in pairs if w > 1e-12]
    total = sum(w for w, _ in pairs)
    return [(w / total, v) for w, v in pairs]


# -- simulation ---------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationResult:
    """Empirical estimate of the automaton's payoff profile."""

    mean: np.ndarray
    stderr: np.ndarray
    episodes: int


def simulate(M: Automaton, gamma: float, seed: int,
             episodes: int) -> SimulationResult:
    """Monte Carlo estimate of the automaton's discounted average payoff.

    Each episode plays from the initial state and continues with
    probability gamma after every stage (the continuation reading of the
    discount factor), so the per-episode undiscounted payoff sum, scaled by
    (1 - gamma), is an unbiased estimator of the automaton's value.  One
    seeded generator drives action sampling and the public signal; the draw
    order per stage is fixed (actions by player, then the lottery signal,
    then the continuation coin), so a seed fully determines the run.
    Episodes must be at least one: with gamma in [0, 1) each ends with
    probability one.
    """
    check_gamma(gamma)
    if not is_integer(episodes) or episodes < 1:
        raise ValueError("episodes must be an integer of at least 1")
    rng = np.random.default_rng(seed)
    game = M.game
    n = game.player_count
    cums = [[np.cumsum(st.mixed.probs[i]) for i in range(n)]
            for st in M.states]
    sums = np.zeros((episodes, n))
    for ep in range(episodes):
        q = M.initial
        total = np.zeros(n)
        while True:
            profile = tuple(
                int(np.searchsorted(cums[q][i], rng.random(), side="right"))
                for i in range(n))
            total += game.payoff(profile)
            tr = M.states[q].transitions[profile]
            if isinstance(tr, int):
                q = tr
            else:
                omega = 1.0 - rng.random()  # public signal in (0, 1]
                acc = 0.0
                q = tr[-1][1]
                for weight, t in tr:
                    acc += weight
                    if omega <= acc + 1e-15:
                        q = t
                        break
            if rng.random() >= gamma:
                break
        sums[ep] = total
    scaled = (1.0 - gamma) * sums
    mean = scaled.mean(axis=0)
    stderr = scaled.std(axis=0, ddof=1) / np.sqrt(episodes) \
        if episodes > 1 else np.zeros(n)
    return SimulationResult(mean=mean, stderr=stderr, episodes=episodes)
