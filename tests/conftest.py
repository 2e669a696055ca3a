"""Shared fixtures, independent oracles and stage-game helpers for the test
suite.

The oracles here deliberately avoid the library's own code paths wherever
they are used to check those paths: the rational simplex re-decides
feasibility in exact arithmetic, the stage-equilibrium oracle enumerates
supports and solves indifference systems with plain linear algebra, the
minmax oracle sweeps a fine grid of opponent mixtures, the hull oracle
is a brute-force quadratic scan, the automaton oracle walks every
state's transitions in plain Python loops (and, for deviations, evaluates
every deterministic deviator policy in exact fractions), the reference
tableau is the simplex's phase-1 tableau built row by row from named
constraints, the reference simplex is the simplex's kernel with its
tableau and cost row kept apart, and the scalar replay residual evaluates
a mixed certificate's support rows one by one in plain Python loops.
The helpers (expected payoffs, best responses, discounted averages of
payoff streams) and the support LPs built by name (the pure back-end's,
and the mixed back-ends' that the solver fills from per-pattern templates)
are only read by tests, so they live here rather than in the library.
"""

from __future__ import annotations

import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spegrid as sg
from spegrid.feasibility import (FEAS_TOL, PIVOT_TOL, _phase_one, alpha_var,
                                 w_var, wp_var)
from spegrid.solver import (_above, _below, _conditional_payoffs, _deviation,
                            _hull_row, _utility, certificate_residual)


@pytest.fixture(scope="session")
def pd():
    return sg.load_bundled("prisoners_dilemma")


@pytest.fixture(scope="session")
def bos():
    return sg.load_bundled("battle_of_sexes")


@pytest.fixture(scope="session")
def rpc():
    return sg.load_bundled("rock_paper_scissors")


@pytest.fixture(scope="session")
def pennies():
    return sg.load_bundled("matching_pennies")


def random_game(rng, shape=(2, 2), lo=-3.0, hi=3.0) -> sg.StageGame:
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    tensor = rng.uniform(lo, hi, size=shape + (len(shape),))
    return sg.StageGame(actions, tensor)


def write_report(report, path, certificates=None) -> None:
    """Write a report's final set to ``path`` as a run does, with
    ``certificates`` in place of the report's own when given."""
    from spegrid import cli

    C = report.final
    snap = sg.SolveSnapshot(iteration=report.iterations[-1].iteration,
                            generation=C.generation, side=C.side, base=C.base,
                            indices=tuple(C.indices()))
    cli.write_final_set(path, snap, report.status,
                        report.certificates if certificates is None
                        else certificates)


def check_written_final_set(report, game: sg.StageGame, gamma: float) -> None:
    """Write a report's final set and require two things: ``--verify``
    accepts it, and the residuals its reader replays per kind are, bit for
    bit (``float.hex``), those of the solver's replay over
    ``read_final_set``'s certificates, which cover every cube and kind: the
    replay table's gather and kernel, or the scalar residual for pure
    ones."""
    from spegrid import cli, solver

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "final_set.txt"
        write_report(report, path)
        assert cli.verify_final_set(path, game, gamma)
        residuals = cli._final_set_residuals(path, game, gamma)
        C, _, certs = cli.read_final_set(path)
    assert residuals and sorted(residuals) == sorted(
        {c.kind for c in certs.values()})
    assert sorted(ix for indices, _ in residuals.values()
                  for ix in indices) == C.indices() == sorted(certs)
    for kind, (indices, res) in residuals.items():
        ctx = solver._build_context(C, hull=kind == "correlated")
        if kind == "pure":
            batch = np.array([solver.certificate_residual(
                certs[ix], game, gamma, C.origin_of(ix), C.side, ctx.w_floor,
                ctx.clusters) for ix in indices])
        else:
            batch = solver._residual_kernel(
                indices, *solver._certificate_rows(certs, indices, game), C,
                ctx, gamma, [game.action_count(i) for i in range(2)])
        assert list(map(float.hex, res.tolist())) == \
            list(map(float.hex, batch.tolist()))


# -- the scalar replay oracle ---------------------------------------------------

def scalar_residual(cert, game: sg.StageGame, gamma: float, cube_origin, side,
                    w_floor, region) -> float:
    """Largest constraint violation of any certificate in the cube at
    ``cube_origin`` with ``side``, against the floor ``w_floor`` and the
    continuation ``region``: the union's clusters (pure and mixed), or its
    hull's half-planes (correlated).  A pure certificate's is the solver's
    ``certificate_residual``.  A mixed one's is the scalar loop the solver
    replayed it through before the replay table, kept here unchanged as
    the oracle that ``_ReplayTable`` and ``_residual_kernel`` must match bit
    for bit.

    Out-of-support continuations are re-anchored at the punishment floor
    (always allowed), so only the floor-dependent inequality is checked for
    them.
    """
    if cert.kind == "pure":
        return certificate_residual(cert, game, gamma, cube_origin, side,
                                    w_floor, region)

    sol = cert.solution
    cond = _conditional_payoffs(cert, game)
    supports = sol.pattern.supports
    worst = 0.0
    if cert.kind == "mixed":
        worst = _cluster_violation(region, [[sol.continuation(i, a)
                                             for a in supports[i]]
                                            for i in range(2)])
    else:
        for a1 in supports[0]:
            w1 = sol.continuation(0, a1)
            for a2 in supports[1]:
                w2 = sol.continuation(1, a2)
                for phi, psi, lam in region:
                    worst = max(worst, _hull_row(phi, psi, lam, w1, w2))
    for i in range(2):
        in_supp = set(supports[i])
        for a in range(game.action_count(i)):
            if a in in_supp:
                wp = _utility(cond[i][a], sol.continuation(i, a), gamma)
                worst = max(worst, _below(wp, cube_origin[i]),
                            _above(wp, cube_origin[i], side))
            else:
                worst = max(worst, _deviation(cond[i][a], w_floor[i],
                                              cube_origin[i], gamma))
    return worst


def _cluster_violation(pool, values) -> float:
    """How far the continuation values (one list per player) are from
    fitting in one cluster of the pool: the least, over clusters, of the
    largest box violation, and never below 0."""
    best = np.inf
    for s in pool:
        viol = 0.0
        for i, vals in enumerate(values):
            for v in vals:
                viol = max(viol, _below(v, s.origin[i]),
                           _above(v, s.origin[i], s.lengths[i]))
        best = min(best, viol)
    return best


# -- stage-game helpers ---------------------------------------------------------

def expected_payoff(game: sg.StageGame, mix: sg.MixedProfile, player: int,
                    fixed_action: int | None = None) -> float:
    """Expected payoff of `player` under `mix`.

    With ``fixed_action`` given, the expectation runs over the opponents'
    mixtures only, with `player` pinned to that pure action; the player's
    own component of `mix` is ignored.
    """
    if not 0 <= player < game.player_count:
        raise IndexError(f"player {player} out of range")
    table = game.payoffs[..., player]
    for j in reversed(range(game.player_count)):
        if j == player and fixed_action is not None:
            if not 0 <= fixed_action < game.action_count(player):
                raise IndexError(f"action {fixed_action} out of range")
            table = np.take(table, fixed_action, axis=j)
        else:
            table = np.tensordot(table, mix.probs[j], axes=([j], [0]))
    return float(table)


def best_response(game: sg.StageGame, player: int,
                  opponent_mix: sg.MixedProfile) -> tuple[int, float]:
    """Best pure response of `player` against the opponents' mixtures.

    `opponent_mix` is a full MixedProfile; the player's own component is
    ignored.  Ties (within 1e-9) break to the smallest action index.
    """
    best_action, best_value = 0, -np.inf
    for a in range(game.action_count(player)):
        v = expected_payoff(game, opponent_mix, player, fixed_action=a)
        if v > best_value + 1e-9:
            best_action, best_value = a, v
    return best_action, best_value


def discounted_average(prefix, cycle, gamma: float) -> float:
    """Discounted average value of the stream prefix followed by cycle repeated
    forever: (1 - g) * sum_t g^t v_t, in closed form via the geometric series.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"discount factor {gamma} outside [0, 1)")
    prefix = [float(v) for v in prefix]
    cycle = [float(v) for v in cycle]
    if not cycle:
        raise ValueError("cycle must be non-empty")
    if gamma == 0.0:
        return prefix[0] if prefix else cycle[0]
    head = sum(v * gamma ** t for t, v in enumerate(prefix))
    one_pass = sum(v * gamma ** t for t, v in enumerate(cycle))
    tail = gamma ** len(prefix) * one_pass / (1.0 - gamma ** len(cycle))
    return (1.0 - gamma) * (head + tail)


# -- minmax oracle: fine grid over opponent mixtures -------------------------

def grid_minmax(game: sg.StageGame, player: int, steps: int = 4000) -> float:
    opp = 1 - player
    k = game.action_count(opp)
    best = np.inf
    payoff = game.payoffs[..., player]
    if player == 1:
        payoff = payoff.T
    if k == 2:
        for q in np.linspace(0.0, 1.0, steps + 1):
            mix = np.array([q, 1.0 - q])
            best = min(best, (payoff @ mix).max())
    else:
        for combo in itertools.product(np.linspace(0, 1, 41), repeat=k - 1):
            if sum(combo) > 1.0 + 1e-12:
                continue
            mix = np.array(list(combo) + [1.0 - sum(combo)])
            best = min(best, (payoff @ mix).max())
    return float(best)


# -- stage equilibrium oracle: support enumeration with linear algebra -------

def stage_equilibria(game: sg.StageGame, tol: float = 1e-8):
    """All stage Nash equilibria of a 2-player game as (alpha, payoff)
    pairs, found by support enumeration: for each support pair, solve the
    indifference system and verify non-negativity and no profitable
    outside deviation."""
    m, k = game.action_count(0), game.action_count(1)
    A = game.payoffs[..., 0]
    B = game.payoffs[..., 1]
    results = []
    for s1 in _subsets(m):
        for s2 in _subsets(k):
            sol = _support_solution(A, B, s1, s2, tol)
            if sol is not None:
                p, q = sol
                value = (float(p @ A @ q), float(p @ B @ q))
                if not any(np.allclose(p, r[0]) and np.allclose(q, r[1])
                           for r, _ in results):
                    results.append(((p, q), value))
    return results


def _subsets(m):
    for size in range(1, m + 1):
        yield from itertools.combinations(range(m), size)


def _support_solution(A, B, s1, s2, tol):
    m, k = A.shape
    # q makes player 1 indifferent on s1; p makes player 2 indifferent on s2
    q = _indifferent_mix(A[list(s1)][:, list(s2)], len(s2))
    p = _indifferent_mix(B[list(s1)][:, list(s2)].T, len(s1))
    if q is None or p is None:
        return None
    qf = np.zeros(k)
    qf[list(s2)] = q
    pf = np.zeros(m)
    pf[list(s1)] = p
    if np.any(qf < -tol) or np.any(pf < -tol):
        return None
    qf, pf = np.clip(qf, 0, None), np.clip(pf, 0, None)
    qf, pf = qf / qf.sum(), pf / pf.sum()
    u1 = A @ qf
    u2 = B.T @ pf
    v1 = max(u1[list(s1)])
    v2 = max(u2[list(s2)])
    if np.any(u1 > v1 + tol) or np.any(u2 > v2 + tol):
        return None
    if max(abs(u1[list(s1)] - v1)) > tol or max(abs(u2[list(s2)] - v2)) > tol:
        return None
    return pf, qf


def _indifferent_mix(M, size):
    # mix x over columns with all row payoffs equal and sum(x) = 1
    rows = M.shape[0]
    lhs = np.zeros((rows - 1 + 1, size))
    rhs = np.zeros(rows - 1 + 1)
    for r in range(rows - 1):
        lhs[r] = M[r] - M[r + 1]
    lhs[-1] = 1.0
    rhs[-1] = 1.0
    try:
        x, res, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(lhs @ x - rhs)) > 1e-9:
        return None
    return x


# -- support LPs by name: the oracles of the solver's LP templates ------------

def pure_support_system(cube, cluster, w_floor, game: sg.StageGame,
                        gamma: float, profile) -> sg.LinearSystem:
    """Linear system deciding whether `profile` supports `cube` with a
    continuation inside `cluster`: the utility recursion pins w' to the
    cube, the continuation stays in the cluster, and no player gains by
    deviating to a best response followed by the punishment floor."""
    n = game.player_count
    r_vals, br_vals = game.tables.pure[tuple(profile)]
    sys = sg.LinearSystem()
    for i in range(n):
        sys.add_variable(w_var(i, 0), low=cluster.origin[i],
                         high=cluster.origin[i] + cluster.lengths[i])
        sys.add_variable(wp_var(i, 0), low=cube.origin[i],
                         high=cube.origin[i] + cube.side)
    for i in range(n):
        sys.add_constraint({wp_var(i, 0): 1.0, w_var(i, 0): -gamma},
                           "=", (1.0 - gamma) * r_vals[i])
        sys.add_constraint({w_var(i, 0): gamma}, ">=",
                           (1.0 - gamma) * (br_vals[i] - r_vals[i])
                           + gamma * w_floor[i])
    return sys


def support_system(cube, w_lo, w_hi, halfplanes, w_floor,
                   game: sg.StageGame, gamma: float,
                   pattern) -> sg.LinearSystem:
    """The support LP of both mixed back-ends built by name, row by row:
    the in-support continuations in the box [w_lo, w_hi] and, for every
    in-support pair, the half-planes (none for a cluster).  The solver
    fills the same LP from a per-pattern template; this is its oracle."""
    sys = sg.LinearSystem()
    side = cube.side
    for i in range(2):
        supp = set(pattern.supports[i])
        for a in range(game.action_count(i)):
            if a in supp:
                sys.add_variable(alpha_var(i, a), low=0.0, high=1.0)
                sys.add_variable(w_var(i, a), low=w_lo[i], high=w_hi[i])
                sys.add_variable(wp_var(i, a), low=cube.origin[i],
                                 high=cube.origin[i] + side)
            else:
                sys.add_variable(w_var(i, a), low=w_floor[i],
                                 high=w_floor[i] + side)
                sys.add_variable(wp_var(i, a), high=cube.origin[i])
        sys.add_constraint({alpha_var(i, a): 1.0 for a in pattern.supports[i]},
                           "=", 1.0)
    # w'_i(a) = (1-g) * sum_b alpha_opp(b) r_i(a, b) + g * w_i(a), all actions
    for i in range(2):
        opp = 1 - i
        for a in range(game.action_count(i)):
            coeffs = {wp_var(i, a): 1.0, w_var(i, a): -gamma}
            for b in pattern.supports[opp]:
                prof = (a, b) if i == 0 else (b, a)
                coeffs[alpha_var(opp, b)] = \
                    coeffs.get(alpha_var(opp, b), 0.0) \
                    - (1.0 - gamma) * game.payoff_to(prof, i)
            sys.add_constraint(coeffs, "=", 0.0)
    for a1 in pattern.supports[0]:
        for a2 in pattern.supports[1]:
            for pl in halfplanes:
                sys.add_constraint({w_var(0, a1): pl.phi, w_var(1, a2): pl.psi},
                                   "<=", pl.lam)
    return sys


def reference_tableau(system: sg.LinearSystem):
    """The phase-1 tableau, cost row and basis of a LinearSystem as the
    simplex built them row by row from the named constraints, before the
    array form: the bits the array form must reproduce.  Also returns the
    rows multiplied by -1 for a negative right-hand side."""
    col_kind = {}
    ncols = 0
    upper_rows = []
    for v in system.variables:
        if np.isfinite(v.low):
            col_kind[v.name] = ("low", ncols, v.low)
            if np.isfinite(v.high):
                upper_rows.append((ncols, v.high - v.low))
            ncols += 1
        elif np.isfinite(v.high):
            col_kind[v.name] = ("high", ncols, v.high)
            ncols += 1
        else:
            col_kind[v.name] = ("free", ncols, ncols + 1)
            ncols += 2
    rows, rels, rhs = [], [], []
    for c in system.constraints:
        row = np.zeros(ncols)
        shift = 0.0
        for name, coef in c.coeffs.items():
            kind = col_kind[name]
            if kind[0] == "low":
                row[kind[1]] += coef
                shift += coef * kind[2]
            elif kind[0] == "high":
                row[kind[1]] -= coef
                shift += coef * kind[2]
            else:
                row[kind[1]] += coef
                row[kind[2]] -= coef
        rows.append(row)
        rels.append(c.rel)
        rhs.append(c.rhs - shift)
    for col, bound in upper_rows:
        row = np.zeros(ncols)
        row[col] = 1.0
        rows.append(row)
        rels.append("<=")
        rhs.append(bound)
    m = len(rows)
    A = np.array(rows) if rows else np.zeros((0, ncols))
    b = np.array(rhs)
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    swap = {"<=": ">=", ">=": "<=", "=": "="}
    rels = [swap[r] if f else r for r, f in zip(rels, flip)]
    nslack = sum(1 for r in rels if r != "=")
    nart = sum(1 for r in rels if r != "<=")
    width = ncols + nslack + nart
    T = np.zeros((m, width + 1))
    T[:, :ncols] = A
    T[:, -1] = b
    basis = [0] * m
    s_at, a_at = ncols, ncols + nslack
    art_cols = []
    for i, r in enumerate(rels):
        if r == "<=":
            T[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif r == ">=":
            T[i, s_at] = -1.0
            s_at += 1
            T[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1
        else:
            T[i, a_at] = 1.0
            basis[i] = a_at
            art_cols.append(a_at)
            a_at += 1
    z = np.zeros(width + 1)
    for c in art_cols:
        z[c] = 1.0
    for i in range(m):
        if basis[i] in art_cols:
            z -= T[i]
    return T, z, basis, flip


# -- exact rational feasibility oracle ----------------------------------------

def rational_feasible(system: sg.LinearSystem) -> bool:
    """Phase-1 simplex in exact Fraction arithmetic with Bland's rule.

    Independent re-implementation used to cross-check the float engine's
    feasible/infeasible verdicts.
    """
    names = [v.name for v in system.variables]
    cols = {}
    ncols = 0
    upper_rows = []
    for v in system.variables:
        lo = None if v.low == -np.inf else Fraction(v.low)
        hi = None if v.high == np.inf else Fraction(v.high)
        if lo is not None:
            cols[v.name] = ("low", ncols, lo)
            if hi is not None:
                upper_rows.append((ncols, hi - lo))
            ncols += 1
        elif hi is not None:
            cols[v.name] = ("high", ncols, hi)
            ncols += 1
        else:
            cols[v.name] = ("free", ncols, ncols + 1)
            ncols += 2

    rows = []
    for c in system.constraints:
        row = [Fraction(0)] * ncols
        shift = Fraction(0)
        for name, coef in c.coeffs.items():
            f = Fraction(coef)
            kind = cols[name]
            if kind[0] == "low":
                row[kind[1]] += f
                shift += f * kind[2]
            elif kind[0] == "high":
                row[kind[1]] -= f
                shift += f * kind[2]
            else:
                row[kind[1]] += f
                row[kind[2]] -= f
        rows.append((row, c.rel, Fraction(c.rhs) - shift))
    for col, bound in upper_rows:
        row = [Fraction(0)] * ncols
        row[col] = Fraction(1)
        rows.append((row, "<=", bound))

    normalized = []
    for row, rel, b in rows:
        if b < 0:
            row = [-x for x in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        normalized.append((row, rel, b))
    rows = normalized

    tableau = []
    basis = []
    art = []
    nslack = sum(1 for _, rel, _ in rows if rel != "=")
    total = ncols + nslack + sum(1 for _, rel, _ in rows if rel != "<=")
    s_at = ncols
    a_at = ncols + nslack
    for row, rel, b in rows:
        line = list(row) + [Fraction(0)] * (total - ncols) + [b]
        if rel == "<=":
            line[s_at] = Fraction(1)
            basis.append(s_at)
            s_at += 1
        elif rel == ">=":
            line[s_at] = Fraction(-1)
            s_at += 1
            line[a_at] = Fraction(1)
            basis.append(a_at)
            art.append(a_at)
            a_at += 1
        else:
            line[a_at] = Fraction(1)
            basis.append(a_at)
            art.append(a_at)
            a_at += 1
        tableau.append(line)

    cost = [Fraction(0)] * (total + 1)
    for c in art:
        cost[c] = Fraction(1)
    for i, bk in enumerate(basis):
        if bk in art:
            cost = [cv - tv for cv, tv in zip(cost, tableau[i])]

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(tableau[i][-1] / tableau[i][enter], basis[i], i)
                  for i in range(len(tableau)) if tableau[i][enter] > 0]
        if not ratios:
            break  # unbounded phase 1 cannot happen; defensive
        _, _, r = min(ratios)
        piv = tableau[r][enter]
        tableau[r] = [x / piv for x in tableau[r]]
        for i in range(len(tableau)):
            if i != r and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[r])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[r])]
        basis[r] = enter
    return -cost[-1] == 0


# -- reference simplex: the kernel before the fused tableau -------------------
#
# The tableau simplex and its drive-out as they were when the tableau and the
# cost row were two arrays; ``tests/test_simplex_kernel.py`` requires the
# fused kernel to take the same pivots and produce the same bits.

class ReferenceSimplex:
    """Dense tableau simplex working on one phase at a time: the simplex's
    kernel before its tableau and cost row were fused into one array."""

    def __init__(self, tableau: np.ndarray, cost_row: np.ndarray,
                 basis: list[int]):
        self.T = tableau
        self.z = cost_row
        self.basis = basis
        self.bland = False
        self._stall = 0

    def _entering(self) -> int | None:
        z = self.z[:-1]
        if self.bland:
            for j in range(z.size):
                if z[j] < -1e-9:
                    return j
            return None
        j = int(np.argmin(z))
        return j if z[j] < -1e-9 else None

    def _leaving(self, col: int) -> int | None:
        T = self.T
        rows = np.nonzero(T[:, col] > PIVOT_TOL)[0]
        if rows.size == 0:
            return None
        ratios = T[rows, -1] / T[rows, col]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        # smallest basis index among ties preserves Bland's guarantee
        return int(min(ties, key=lambda r: self.basis[r]))

    def pivot(self, row: int, col: int) -> None:
        T = self.T
        prow = T[row] / T[row, col]
        T -= np.outer(T[:, col], prow)
        T[row] = prow
        self.z -= self.z[col] * prow
        self.basis[row] = col

    def run(self) -> bool:
        """Iterate to optimality.  Returns False when unbounded."""
        limit = 20000 + 50 * (self.T.shape[0] + self.T.shape[1])
        for _ in range(limit):
            col = self._entering()
            if col is None:
                return True
            row = self._leaving(col)
            if row is None:
                return False
            before = self.z[-1]
            self.pivot(row, col)
            if abs(self.z[-1] - before) < 1e-12:
                self._stall += 1
                if self._stall > 2 * (self.T.shape[0] + self.T.shape[1]):
                    self.bland = True
            else:
                self._stall = 0
        raise RuntimeError("simplex iteration limit exceeded")


def reference_solve(system) -> dict | None:
    """``solve_feasibility`` on ReferenceSimplex, from the same phase-1
    tableau, cost row and basis: the points the fused kernel must keep."""
    if isinstance(system, sg.LinearSystem):
        system = system.compile()
    start, n = _phase_one(system)
    sx = ReferenceSimplex(start.T.copy(), start.z.copy(), list(start.basis))
    sx.run()  # bounded below by zero, cannot be unbounded
    if -sx.z[-1] > FEAS_TOL:
        return None
    cols = system.columns

    def recover(sx: ReferenceSimplex, largest: bool):
        """Phase 2 from the phase-1 tableau: drive the artificials left in
        the basis out (pivoting on each row's first usable entry, or on its
        largest one), drop redundant rows, then read off the point."""
        T, basis = sx.T, sx.basis
        keep = []
        for i in range(len(basis)):
            if basis[i] >= n:
                cand = np.abs(T[i, :n])
                piv = int(np.argmax(cand if largest else cand > PIVOT_TOL))
                if cand[piv] <= PIVOT_TOL:
                    continue  # redundant row
                sx.pivot(i, piv)
            keep.append(i)
        T = np.concatenate((T[keep, :n], T[keep, -1:]), axis=1)
        basis = [basis[i] for i in keep]

        if system.objective is not None:
            costs = np.zeros(n + 1)
            costs[:cols.count] = system.objective
            z2 = costs.copy()
            for i in range(len(basis)):
                if costs[basis[i]] != 0.0:
                    z2 -= costs[basis[i]] * T[i]
            sx2 = ReferenceSimplex(T, z2, basis)
            if not sx2.run():
                raise sg.UnboundedError("objective is unbounded below")
            T, basis = sx2.T, sx2.basis

        values = np.zeros(n)
        values[basis] = T[:, -1]
        x = np.where(cols.high_only, system.high - values[cols.col],
                     system.low + values[cols.col])
        free = cols.col[cols.free]
        x[cols.free] = values[free] - values[free + 1]
        # clean up float dust against the bounds
        x = np.where(system.low > x, system.low, x)
        x = np.where(system.high < x, system.high, x)
        return x, system._violation(x)

    # The first-entry drive-out can leave a phase-1 slack of up to FEAS_TOL
    # amplified past the residual check; the largest-entry drive-out keeps
    # it small, so it is redone that way from a copy of the phase-1 tableau.
    # It is only a fallback: the two can return different feasible points.
    phase1 = None
    if any(bk >= n for bk in sx.basis):
        phase1 = ReferenceSimplex(sx.T.copy(), sx.z.copy(), list(sx.basis))
    x, worst = recover(sx, largest=False)
    if worst > 10 * FEAS_TOL and phase1 is not None:
        x, worst = recover(phase1, largest=True)
    if worst > 10 * FEAS_TOL:
        raise RuntimeError(f"simplex returned a point with residual {worst}")
    return dict(zip(system.names, x.tolist()))


# -- automaton evaluation oracle: per-state Python loops over transitions ----
#
# The loop bodies that evaluated automata before the outcome table; the
# library's ``automaton_value``, and its ``deviation_values`` where it still
# takes the max (gamma = 0) or iterates (above the policy-iteration cut-off),
# must reproduce their bits.  Where ``deviation_values`` runs policy
# iteration, ``exact_deviation_values`` is the oracle instead.

def _oracle_targets(tr, p):
    return ((tr, p),) if isinstance(tr, int) else [(t, p * w) for w, t in tr]


def reference_automaton_value(M, gamma: float) -> np.ndarray:
    srcs, dsts, wts = [], [], []
    n = M.game.player_count
    R = np.zeros((len(M.states), n))
    for q in range(len(M.states)):
        st = M.states[q]
        for profile in itertools.product(*M.supports(q)):
            p = 1.0
            for i, a in enumerate(profile):
                p *= float(st.mixed.probs[i][a])
            if not p > 0.0:
                continue
            R[q] += p * M.game.payoff(profile)
            for t, w in _oracle_targets(st.transitions[profile], p):
                srcs.append(q)
                dsts.append(t)
                wts.append(w)
    srcs = np.array(srcs, dtype=np.int64)
    dsts = np.array(dsts, dtype=np.int64)
    wts = np.array(wts)
    Q, n = R.shape
    if gamma == 0.0:
        return R
    if Q <= 1500:
        P = np.zeros((Q, Q))
        np.add.at(P, (srcs, dsts), wts)
        return np.linalg.solve(np.eye(Q) - gamma * P, (1.0 - gamma) * R)
    u = R.copy()
    while True:
        pu = np.empty_like(u)
        for c in range(n):
            pu[:, c] = np.bincount(srcs, weights=wts * u[dsts, c], minlength=Q)
        new = (1.0 - gamma) * R + gamma * pu
        step = np.max(np.abs(new - u))
        u = new
        if step <= 1e-9:
            return u


def deviation_rows(M, player: int, num=float) -> list:
    """Row q * A + a is the deviator `player` playing a at state q: its
    stage payoff and its (next state, probability) entries, with every
    opponent in support and every number in ``num`` (float or Fraction)."""
    game = M.game
    others = [j for j in range(game.player_count) if j != player]
    rows = []
    for st in M.states:
        opp_support = [st.mixed.support(j) for j in others]
        for a in range(game.action_count(player)):
            stage, entries = num(0), []
            for combo in itertools.product(*opp_support):
                p = num(1)
                for j, b in zip(others, combo):
                    p *= num(float(st.mixed.probs[j][b]))
                if p <= 0:
                    continue
                profile = [0] * game.player_count
                profile[player] = a
                for j, b in zip(others, combo):
                    profile[j] = b
                profile = tuple(profile)
                stage += p * num(game.payoff_to(profile, player))
                tr = st.transitions[profile]
                entries.extend(((tr, p),) if isinstance(tr, int) else
                               [(t, p * num(w)) for w, t in tr])
            rows.append((stage, entries))
    return rows


def reference_deviation_values(M, player: int, gamma: float) -> np.ndarray:
    Q, A = len(M.states), M.game.action_count(player)
    rows = deviation_rows(M, player)
    imm = np.array([stage for stage, _ in rows]).reshape(Q, A)
    srcs = np.array([r for r, (_, entries) in enumerate(rows)
                     for _ in entries], dtype=np.int64)
    dsts = np.array([t for _, entries in rows for t, _ in entries],
                    dtype=np.int64)
    wts = np.array([w for _, entries in rows for _, w in entries])
    if gamma == 0.0:
        return imm.max(axis=1)
    V = np.zeros(Q)
    tol = 1e-9 * (1.0 - gamma)
    while True:
        tv = np.bincount(srcs, weights=wts * V[dsts], minlength=Q * A)
        newV = ((1.0 - gamma) * imm + gamma * tv.reshape(Q, A)).max(axis=1)
        step = np.max(np.abs(newV - V))
        V = newV
        if step <= tol:
            return V


def deviation_action_values(M, player: int, gamma: float, V) -> np.ndarray:
    """(1 - gamma) * stage + gamma * E[V(next)] per state and deviator
    action: one Bellman step on V, whose row maximum is V at the optimum."""
    Q, A = len(M.states), M.game.action_count(player)
    return np.array([(1.0 - gamma) * stage
                     + gamma * sum(w * V[t] for t, w in entries)
                     for stage, entries in deviation_rows(M, player)]
                    ).reshape(Q, A)


def exact_deviation_values(M, player: int, gamma: float) -> list[Fraction]:
    """The best deviation's value per state in exact arithmetic: every
    deterministic stationary deviator policy (A^Q of them) evaluated by
    solving (I - gamma P) V = (1 - gamma) r in fractions, then the pointwise
    maximum, which a discounted finite MDP attains at one such policy."""
    Q, A = len(M.states), M.game.action_count(player)
    g = Fraction(gamma)
    rows = deviation_rows(M, player, Fraction)
    best = None
    for policy in itertools.product(range(A), repeat=Q):
        system = []
        for q, a in enumerate(policy):
            stage, entries = rows[q * A + a]
            row = [Fraction(int(q == s)) for s in range(Q)]
            for t, w in entries:
                row[t] -= g * w
            system.append(row + [(1 - g) * stage])
        V = _solve_fractions(system)
        best = V if best is None else [max(x, y) for x, y in zip(best, V)]
    return best


def value_rows(M, num=float) -> list:
    """Row q is state q: its expected stage payoff per player and its (next
    state, probability) entries, over the profiles of its supports, with
    every number in ``num`` (float or Fraction)."""
    rows = []
    for q, st in enumerate(M.states):
        stage, entries = [num(0)] * M.game.player_count, []
        for profile in itertools.product(*M.supports(q)):
            p = num(1)
            for i, a in enumerate(profile):
                p *= num(float(st.mixed.probs[i][a]))
            if p <= 0:
                continue
            stage = [x + p * num(float(r))
                     for x, r in zip(stage, M.game.payoff(profile))]
            tr = st.transitions[profile]
            entries.extend(((tr, p),) if isinstance(tr, int) else
                           [(t, p * num(w)) for w, t in tr])
        rows.append((stage, entries))
    return rows


def value_residual(M, gamma: float, u) -> np.ndarray:
    """|u - (1 - gamma) R - gamma P u| per state and player."""
    return np.array([np.abs(u[q] - (1.0 - gamma) * np.array(stage)
                            - gamma * sum(w * u[t] for t, w in entries))
                     for q, (stage, entries) in enumerate(value_rows(M))])


def exact_automaton_value(M, gamma: float) -> np.ndarray:
    """The value per state and player, rounded from exact arithmetic: for
    each player, (I - gamma P) u = (1 - gamma) R solved in fractions."""
    Q, g = len(M.states), Fraction(gamma)
    rows = value_rows(M, Fraction)
    columns = []
    for c in range(M.game.player_count):
        system = []
        for q, (stage, entries) in enumerate(rows):
            row = [Fraction(int(q == s)) for s in range(Q)]
            for t, w in entries:
                row[t] -= g * w
            system.append(row + [(1 - g) * stage[c]])
        columns.append([float(x) for x in _solve_fractions(system)])
    return np.array(columns).T


def _solve_fractions(system: list) -> list[Fraction]:
    """Gauss-Jordan elimination on an augmented square system whose matrix
    is strictly diagonally dominant, so every diagonal pivot is nonzero."""
    n = len(system)
    for k in range(n):
        pivot = system[k]
        for r in range(n):
            if r != k and system[r][k]:
                f = system[r][k] / pivot[k]
                system[r] = [x - f * y for x, y in zip(system[r], pivot)]
    return [system[k][n] / system[k][k] for k in range(n)]


# -- brute force convex hull ---------------------------------------------------

def hull_oracle(points):
    """O(n^3) convex hull: a point is a vertex iff it is not inside the hull
    of the others; returns vertices sorted lexicographically."""
    pts = sorted(set(points))
    verts = []
    for p in pts:
        inside = False
        for a, b, c in itertools.combinations(pts, 3):
            if p in (a, b, c):
                continue
            if _in_triangle(p, a, b, c):
                inside = True
                break
        if not inside:
            verts.append(p)
    # drop collinear edge points
    out = []
    for p in verts:
        collinear = False
        for a, b in itertools.combinations(verts, 2):
            if p in (a, b):
                continue
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if abs(cross) < 1e-12 and min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12 \
                    and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12:
                collinear = True
                break
        if not collinear:
            out.append(p)
    return sorted(out)


def _in_triangle(p, a, b, c):
    def side(p1, p2, p3):
        return (p1[0] - p3[0]) * (p2[1] - p3[1]) - (p2[0] - p3[0]) * (p1[1] - p3[1])

    d1, d2, d3 = side(p, a, b), side(p, b, c), side(p, c, a)
    neg = (d1 < -1e-12) or (d2 < -1e-12) or (d3 < -1e-12)
    pos = (d1 > 1e-12) or (d2 > 1e-12) or (d3 > 1e-12)
    return not (neg and pos)
