"""Linear feasibility engine and support-pattern enumeration.

The solver's cube tests are linear constraint satisfaction problems, plus a
mixed-integer layer whose only integer variables indicate which actions are
in the support of a mixed action.  Instead of a MIP solver, the integer
layer is handled exactly by enumerating support patterns in ascending total
cardinality and solving one small LP per pattern: the first feasible
pattern realises the minimum-support objective, so pure patterns are always
preferred when available.

The LP engine is a dense two-phase simplex.  Problems here are tiny (tens
of variables and rows), so the implementation favours robustness: a
feasibility tolerance of 1e-7, pivot tolerance of 1e-10, and Bland's rule
as an anti-cycling fallback once the objective stalls.

Each solve is self-contained; callers may run many solves concurrently on
distinct systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .game import MixedProfile, StageGame

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-10

# Sentinel a support-program shortcut returns when it cannot decide a
# pattern and the LP should run.
UNDECIDED = object()


class UnboundedError(Exception):
    """The objective can be driven to -infinity over the feasible set."""


@dataclass(frozen=True)
class Variable:
    name: str
    low: float = -np.inf
    high: float = np.inf


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    rel: str  # one of "<=", "=", ">="
    rhs: float


@dataclass
class LinearSystem:
    """Named variables with bounds, linear constraints, optional objective."""

    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    objective: Optional[dict] = None

    def add_variable(self, name: str, low: float = -np.inf,
                     high: float = np.inf) -> None:
        if any(v.name == name for v in self.variables):
            raise ValueError(f"duplicate variable {name!r}")
        if low > high:
            raise ValueError(f"variable {name!r}: low > high")
        self.variables.append(Variable(name, float(low), float(high)))

    def add_constraint(self, coeffs: dict, rel: str, rhs: float) -> None:
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        clean = {k: float(v) for k, v in coeffs.items() if v != 0.0}
        for v in clean.values():
            if not np.isfinite(v):
                raise ValueError("non-finite coefficient")
        self.constraints.append(Constraint(clean, rel, float(rhs)))

    def set_objective(self, coeffs: dict) -> None:
        self.objective = {k: float(v) for k, v in coeffs.items()}

    def residual(self, assignment: dict) -> float:
        """Largest violation of the constraints and bounds at a point."""
        worst = 0.0
        for v in self.variables:
            x = assignment[v.name]
            worst = max(worst, v.low - x, x - v.high)
        for c in self.constraints:
            lhs = sum(coef * assignment[name] for name, coef in c.coeffs.items())
            if c.rel == "<=":
                worst = max(worst, lhs - c.rhs)
            elif c.rel == ">=":
                worst = max(worst, c.rhs - lhs)
            else:
                worst = max(worst, abs(lhs - c.rhs))
        return worst


class _Simplex:
    """Dense tableau simplex working on one phase at a time."""

    def __init__(self, tableau: np.ndarray, cost_row: np.ndarray,
                 basis: list[int]):
        self.T = tableau
        self.z = cost_row
        self.basis = basis
        self.bland = False
        self._stall = 0

    def _entering(self) -> Optional[int]:
        z = self.z[:-1]
        if self.bland:
            for j in range(z.size):
                if z[j] < -1e-9:
                    return j
            return None
        j = int(np.argmin(z))
        return j if z[j] < -1e-9 else None

    def _leaving(self, col: int) -> Optional[int]:
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


def solve_feasibility(system: LinearSystem) -> Optional[dict]:
    """Find a point satisfying the system, or None if it is infeasible.

    Infeasibility is certified by the phase-1 artificial objective staying
    above 1e-7.  When an objective is present, the returned point also
    minimises it (to within 1e-7); an unbounded objective raises
    UnboundedError, which is distinct from infeasibility.
    """
    # column model: every variable becomes one or two non-negative columns
    col_kind = {}   # name -> ("low", col, L) | ("high", col, U) | ("free", c+, c-)
    ncols = 0
    upper_rows = []  # (col, bound) for shifted variables with both bounds
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

    def to_row(coeffs: dict):
        row = np.zeros(ncols)
        shift = 0.0
        for name, coef in coeffs.items():
            if name not in col_kind:
                raise ValueError(f"unknown variable {name!r} in constraint")
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
        return row, shift

    rows, rels, rhs = [], [], []
    for c in system.constraints:
        row, shift = to_row(c.coeffs)
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

    # phase 1: minimise the sum of artificials
    z = np.zeros(width + 1)
    for c in art_cols:
        z[c] = 1.0
    for i in range(m):
        if basis[i] in art_cols:
            z -= T[i]
    sx = _Simplex(T, z, basis)
    sx.run()  # bounded below by zero, cannot be unbounded
    if -sx.z[-1] > FEAS_TOL:
        return None

    art_set = set(art_cols)

    def recover(sx: _Simplex, largest: bool):
        """Phase 2 from the phase-1 tableau: drive the artificials left in
        the basis out (pivoting on each row's first usable entry, or on its
        largest one), drop redundant rows, then read off the point."""
        T, basis = sx.T, sx.basis
        keep = []
        for i in range(m):
            if basis[i] in art_set:
                cand = np.abs(T[i, :ncols + nslack])
                piv = int(np.argmax(cand if largest else cand > PIVOT_TOL))
                if cand[piv] <= PIVOT_TOL:
                    continue  # redundant row
                sx.pivot(i, piv)
            keep.append(i)
        T = T[keep]
        basis = [basis[i] for i in keep]
        live = [j for j in range(width) if j not in art_set] + [width]
        T = T[:, live]
        remap = {old: new for new, old in enumerate(live[:-1])}
        basis = [remap[bk] for bk in basis]
        n = ncols + nslack

        if system.objective is not None:
            crow, _ = to_row(system.objective)
            costs = np.zeros(n)
            costs[:ncols] = crow
            z2 = np.zeros(n + 1)
            z2[:n] = costs
            for i in range(len(basis)):
                if costs[basis[i]] != 0.0:
                    z2 -= costs[basis[i]] * T[i]
            sx2 = _Simplex(T, z2, basis)
            if not sx2.run():
                raise UnboundedError("objective is unbounded below")
            T, basis = sx2.T, sx2.basis

        values = np.zeros(n)
        for i, bk in enumerate(basis):
            values[bk] = T[i, -1]
        assignment = {}
        for v in system.variables:
            kind = col_kind[v.name]
            if kind[0] == "low":
                x = kind[2] + values[kind[1]]
            elif kind[0] == "high":
                x = kind[2] - values[kind[1]]
            else:
                x = values[kind[1]] - values[kind[2]]
            # clean up float dust against the bounds
            if np.isfinite(v.low):
                x = max(x, v.low)
            if np.isfinite(v.high):
                x = min(x, v.high)
            assignment[v.name] = float(x)
        return assignment, system.residual(assignment)

    # The first-entry drive-out can leave a phase-1 slack of up to FEAS_TOL
    # amplified past the residual check; the largest-entry drive-out keeps
    # it small, so it is redone that way from a copy of the phase-1 tableau.
    # It is only a fallback: the two can return different feasible points.
    phase1 = None
    if any(bk in art_set for bk in basis):
        phase1 = _Simplex(T.copy(), sx.z.copy(), list(basis))
    assignment, worst = recover(sx, largest=False)
    if worst > 10 * FEAS_TOL and phase1 is not None:
        assignment, worst = recover(phase1, largest=True)
    if worst > 10 * FEAS_TOL:
        raise RuntimeError(f"simplex returned a point with residual {worst}")
    return assignment


# -- support enumeration ----------------------------------------------------

class SupportPattern(NamedTuple):
    """Per-player subsets of actions designated as in-support."""

    supports: tuple[tuple[int, ...], ...]

    @property
    def cardinality(self) -> int:
        return sum(map(len, self.supports))

    def is_pure(self) -> bool:
        return max(map(len, self.supports)) == 1


def enumerate_support_patterns(action_counts: Sequence[int]) -> list[SupportPattern]:
    """All support patterns, ascending total cardinality, lexicographic
    within each cardinality class."""
    per_player = []
    for count in action_counts:
        subsets = []
        for size in range(1, count + 1):
            subsets.extend(itertools.combinations(range(count), size))
        per_player.append(subsets)
    patterns = [SupportPattern(combo)
                for combo in itertools.product(*per_player)]
    patterns.sort(key=lambda p: (p.cardinality, p.supports))
    return patterns


@dataclass(frozen=True)
class SupportSolution:
    """A mixed action profile with per-action continuations and utilities
    certifying one cube: the decision variables of a feasible support LP."""

    alpha: MixedProfile
    continuations: tuple[tuple[float, ...], ...]   # w_i(a_i), all actions
    utilities: tuple[tuple[float, ...], ...]       # w'_i(a_i), all actions
    pattern: SupportPattern

    def continuation(self, player: int, action: int) -> float:
        return self.continuations[player][action]

    def utility(self, player: int, action: int) -> float:
        return self.utilities[player][action]


def alpha_var(player: int, action: int) -> str:
    return f"alpha_{player}_{action}"


def w_var(player: int, action: int) -> str:
    return f"w_{player}_{action}"


def wp_var(player: int, action: int) -> str:
    return f"wp_{player}_{action}"


def assemble_support_solution(assignment: dict, pattern: SupportPattern,
                              game: StageGame) -> SupportSolution:
    """Build a SupportSolution from a feasible assignment of a system that
    uses the alpha_/w_/wp_ naming convention."""
    probs, conts, utils = [], [], []
    for i in range(game.player_count):
        m = game.action_count(i)
        p = np.zeros(m)
        for a in pattern.supports[i]:
            p[a] = max(assignment[alpha_var(i, a)], 0.0)
        total = p.sum()
        if abs(total - 1.0) > 1e-6:
            raise RuntimeError(f"support LP returned probabilities summing to {total}")
        probs.append(p / total)
        conts.append(tuple(assignment[w_var(i, a)] for a in range(m)))
        utils.append(tuple(assignment[wp_var(i, a)] for a in range(m)))
    return SupportSolution(MixedProfile(tuple(probs)), tuple(conts),
                           tuple(utils), pattern)


def solve_support_program(
    builder: Callable[[SupportPattern], LinearSystem],
    game: StageGame,
    patterns: Optional[Sequence[SupportPattern]] = None,
    shortcut: Optional[Callable[[SupportPattern], object]] = None,
) -> Optional[SupportSolution]:
    """First feasible support pattern, searching in ascending cardinality.

    ``builder`` turns a pattern into the LinearSystem that fixes the
    pattern's indicator variables.  ``shortcut``, when given, may decide a
    pattern without an LP: it returns a SupportSolution, None for
    proven-infeasible, or UNDECIDED to fall through to the LP.  Shortcuts
    must agree with the LP; they exist so cheap closed-form cases can skip
    the tableau.

    Returns None after exhausting all patterns.
    """
    if patterns is None:
        patterns = enumerate_support_patterns(
            [game.action_count(i) for i in range(game.player_count)])
    for pattern in patterns:
        if shortcut is not None:
            res = shortcut(pattern)
            if res is None:
                continue
            if res is not UNDECIDED:
                return res
        assignment = solve_feasibility(builder(pattern))
        if assignment is not None:
            return assemble_support_solution(assignment, pattern, game)
    return None
