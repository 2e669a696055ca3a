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
as an anti-cycling fallback once the objective stalls.  It reads an
``ArraySystem`` (built by name, or from a template) in numpy steps.

Each solve is self-contained; callers may run many solves concurrently on
distinct systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
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


class Variable(NamedTuple):
    name: str
    low: float = -np.inf
    high: float = np.inf


class Constraint(NamedTuple):
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
        if np.isnan(low) or np.isnan(high):
            raise ValueError(f"variable {name!r}: NaN bound")
        if low > high:
            raise ValueError(f"variable {name!r}: low > high")
        if low == np.inf or high == -np.inf:
            raise ValueError(f"variable {name!r}: no finite value in bounds")
        self.variables.append(Variable(name, float(low), float(high)))

    def add_constraint(self, coeffs: dict, rel: str, rhs: float) -> None:
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        clean = {k: float(v) for k, v in coeffs.items() if v != 0.0}
        for v in clean.values():
            if not np.isfinite(v):
                raise ValueError("non-finite coefficient")
        if not np.isfinite(rhs):
            raise ValueError("non-finite right-hand side")
        self.constraints.append(Constraint(clean, rel, float(rhs)))

    def set_objective(self, coeffs: dict) -> None:
        self.objective = {k: float(v) for k, v in coeffs.items()}

    def compile(self) -> "ArraySystem":
        """The system in array form."""
        index = {v.name: j for j, v in enumerate(self.variables)}
        low, high = np.array([(v.low, v.high) for v in self.variables],
                             dtype=float).reshape(-1, 2).T
        has_low, has_high = np.isfinite(low), np.isfinite(high)
        free = ~has_low & ~has_high
        col = np.cumsum(1 + free) - 1 - free
        bounded = np.flatnonzero(has_low & has_high)
        upper = np.zeros((len(bounded), len(low) + int(free.sum())))
        upper[np.arange(len(bounded)), col[bounded]] = 1.0
        cols = Columns(col, upper.shape[1], has_high & ~has_low,
                       np.flatnonzero(free), bounded, upper)
        rows = [c.coeffs for c in self.constraints]
        rows += [] if self.objective is None else [self.objective]
        var = np.zeros((len(rows), max(map(len, rows), default=0)), np.intp)
        coef = np.zeros(var.shape)
        A = np.zeros((len(rows), cols.count))
        for r, coeffs in enumerate(rows):
            for k, (name, c) in enumerate(coeffs.items()):
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} in constraint")
                j = var[r, k] = index[name]
                coef[r, k] = c
                # +c on the column of x - L or x+, -c on that of U - x or x-
                A[r, cols.col[j]] += -c if cols.high_only[j] else c
                if j in cols.free:
                    A[r, cols.col[j] + 1] -= c
        m = len(self.constraints)
        return ArraySystem(
            list(index), low, high, cols, A[:m], var[:m], coef[:m],
            np.array([_RELATIONS.index(c.rel) for c in self.constraints],
                     dtype=np.intp),
            np.array([c.rhs for c in self.constraints], dtype=float),
            None if self.objective is None else A[m])

    def residual(self, assignment: dict) -> float:
        """Largest violation of the constraints and bounds at a point."""
        return self.compile().residual(assignment)


# Relation codes of the array form: negating a row turns r into 2 - r.
_LE, _EQ, _GE = 0, 1, 2
_RELATIONS = ("<=", "=", ">=")


class Columns(NamedTuple):
    """Variables on non-negative columns: L + x with a lower bound L, U - x
    with only an upper bound U, else x+ - x- on two columns; with both
    bounds, x <= U - L is an upper row."""

    col: np.ndarray         # per variable, its (first) column
    count: int
    high_only: np.ndarray   # per variable
    free: np.ndarray        # the free variables
    bounded: np.ndarray     # the variables with both bounds
    upper: np.ndarray       # their upper rows over the columns


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's terms summed in order from 0.0, as a loop would: the last
    running sum (0.0 for no terms), + 0.0 to make a -0.0 sum +0.0."""
    return np.add.accumulate(terms, axis=1)[:, -1:].sum(axis=1) + 0.0


class ArraySystem(NamedTuple):
    """A linear system as the simplex reads it: variable j is ``names[j]``
    in [low[j], high[j]] (infinite bounds are absent); row r is sum_k
    coef[r, k] x[var[r, k]] (rel[r]) rhs[r], its terms in order, zero-padded,
    A[r] over the columns; ``objective``: a cost row over them, or None."""

    names: Sequence[str]
    low: np.ndarray
    high: np.ndarray
    columns: Columns
    A: np.ndarray
    var: np.ndarray
    coef: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    objective: Optional[np.ndarray] = None

    @property
    def variables(self) -> list:
        return list(map(Variable, self.names, self.low, self.high))

    @property
    def constraints(self) -> list:
        return [Constraint({self.names[j]: c for j, c in zip(*t) if c},
                           _RELATIONS[r], b) for *t, r, b in
                zip(self.var.tolist(), self.coef.tolist(), self.rel, self.rhs)]

    def residual(self, assignment: dict) -> float:
        """Largest violation of the constraints and bounds at a point."""
        return self._violation(np.array([assignment[n] for n in self.names],
                                        dtype=float))

    def _violation(self, x: np.ndarray) -> float:
        gap = _row_sums(self.coef * x[self.var]) - self.rhs
        gap = np.where(self.rel == _EQ, np.abs(gap), gap * (1 - self.rel))
        return float(np.fmax.reduce(
            np.concatenate((self.low - x, x - self.high, gap)), initial=0.0))


class _Simplex:
    """Dense tableau simplex working on one phase at a time.  ``M`` is the
    tableau with the cost row as its last row; ``T`` and ``z`` are views."""

    def __init__(self, M: np.ndarray, basis: list[int]):
        self.M = M
        self.T = M[:-1]
        self.z = M[-1]
        self.basis = basis
        self.bland = False
        self._stall = 0
        self._update = np.empty_like(M)
        self._rhs = M[:-1, -1]
        self._ratios = np.empty(len(M) - 1)

    def _entering(self) -> Optional[int]:
        z = self.z[:-1]
        if self.bland:
            below = (z < -1e-9).nonzero()[0]
            return int(below[0]) if below.size else None
        j = int(z.argmin())
        return j if z[j] < -1e-9 else None

    def _leaving(self, col: int) -> Optional[int]:
        c = self.T[:, col]
        usable = c > PIVOT_TOL
        ratios = self._ratios
        ratios.fill(np.inf)
        np.divide(self._rhs, c, out=ratios, where=usable)
        best = np.minimum.reduce(ratios, initial=np.inf)
        if best < np.inf:
            ties = (ratios <= best + 1e-12).nonzero()[0]
        elif usable.any():
            ties = usable.nonzero()[0]  # every ratio overflowed
        else:
            return None
        if len(ties) == 1:
            return int(ties[0])
        # smallest basis index among ties preserves Bland's guarantee
        return min(ties.tolist(), key=self.basis.__getitem__)

    def pivot(self, row: int, col: int) -> None:
        """One rank-1 update of the tableau and its cost row: each entry
        becomes M[i, j] - M[i, col] * prow[j], then the pivot row prow."""
        M = self.M
        prow = M[row] / M[row, col]
        np.multiply(M[:, col, None], prow, out=self._update)
        M -= self._update
        M[row] = prow
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


def _phase_one(system: ArraySystem) -> tuple[_Simplex, int]:
    """The phase-1 simplex before its first pivot, and its count of columns
    that are not artificials (which come last): bound shifts move to the
    right-hand sides, upper rows follow, rows with b < 0 are negated, then
    slacks (<=), surpluses and artificials (>=), artificials (=)."""
    if not np.isfinite(system.rhs).all():
        raise ValueError("non-finite right-hand side")
    if np.isnan(system.low).any() or np.isnan(system.high).any():
        raise ValueError("NaN bound")
    if (system.low == np.inf).any() or (system.high == -np.inf).any():
        raise ValueError("a variable has no finite value in its bounds")
    cols = system.columns
    anchor = np.where(cols.high_only, system.high, system.low)
    anchor[cols.free] = 0.0
    up = cols.bounded
    shift = _row_sums(system.coef * anchor[system.var])
    b = np.concatenate((system.rhs - shift, system.high[up] - system.low[up]))
    sign = np.where(b < 0, -1.0, 1.0)
    rel = np.concatenate((system.rel, np.full(len(up), _LE)))
    rel = np.where(sign < 0, 2 - rel, rel)
    s_rows, a_rows = np.flatnonzero(rel != _EQ), np.flatnonzero(rel != _LE)
    ncols = cols.count
    n = ncols + len(s_rows)
    width = n + len(a_rows)
    M = np.zeros((len(b) + 1, width + 1))
    T = M[:-1]
    T[:, :ncols] = np.concatenate((system.A, cols.upper)) * sign[:, None]
    T[:, -1] = b * sign
    basis = np.empty(len(b), dtype=np.intp)
    basis[s_rows] = np.arange(ncols, n)
    T[s_rows, basis[s_rows]] = 1.0 - rel[s_rows]
    basis[a_rows] = np.arange(n, width)
    T[a_rows, basis[a_rows]] = 1.0
    # minimise the sum of the artificials: their unit costs, less each
    # artificial's row, subtracted in row order
    M[-1, n:width] = 1.0
    M[-1] = np.subtract.reduce(M[np.append(-1, a_rows)], axis=0)
    return _Simplex(M, basis.tolist()), n


def solve_feasibility(system) -> Optional[dict]:
    """Find a point (name -> value) satisfying a LinearSystem or an
    ArraySystem, or None if it is infeasible.

    Infeasibility is certified by the phase-1 artificial objective staying
    above 1e-7.  When an objective is present, the returned point also
    minimises it (to within 1e-7); an unbounded objective raises
    UnboundedError, which is distinct from infeasibility.
    """
    if isinstance(system, LinearSystem):
        system = system.compile()
    sx, n = _phase_one(system)
    sx.run()  # bounded below by zero, cannot be unbounded
    if -sx.z[-1] > FEAS_TOL:
        return None
    cols = system.columns

    def recover(sx: _Simplex, largest: bool):
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
        basis = [basis[i] for i in keep]
        rhs = T[keep, -1]

        if system.objective is not None:
            M = np.zeros((len(keep) + 1, n + 1))
            M[:-1, :n] = T[keep, :n]
            M[:-1, -1] = rhs
            costs = np.zeros(n + 1)
            costs[:cols.count] = system.objective
            M[-1] = costs
            for i in range(len(basis)):
                if costs[basis[i]] != 0.0:
                    M[-1] -= costs[basis[i]] * M[i]
            sx2 = _Simplex(M, basis)
            if not sx2.run():
                raise UnboundedError("objective is unbounded below")
            rhs = sx2.T[:, -1]

        values = np.zeros(n)
        values[basis] = rhs
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
        phase1 = _Simplex(sx.M.copy(), list(sx.basis))
    x, worst = recover(sx, largest=False)
    if worst > 10 * FEAS_TOL and phase1 is not None:
        x, worst = recover(phase1, largest=True)
    if worst > 10 * FEAS_TOL:
        raise RuntimeError(f"simplex returned a point with residual {worst}")
    return dict(zip(system.names, x.tolist()))


# -- support enumeration ----------------------------------------------------

class _Supports(NamedTuple):
    supports: tuple[tuple[int, ...], ...]


class SupportPattern(_Supports):
    """Per-player subsets of actions designated as in-support."""

    @cached_property
    def pure(self) -> bool:
        """Whether each player's subset holds a single action."""
        return max(map(len, self.supports)) == 1

    @property
    def cardinality(self) -> int:
        return sum(map(len, self.supports))


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
    """First feasible support pattern of ``patterns`` (by default
    ``game.tables.patterns``), searching in ascending cardinality.

    ``builder`` turns a pattern into the LinearSystem that fixes the
    pattern's indicator variables.  ``shortcut``, when given, may decide a
    pattern without an LP: it returns a SupportSolution, None for
    proven-infeasible, or UNDECIDED to fall through to the LP.  Shortcuts
    must agree with the LP; they exist so cheap closed-form cases can skip
    the tableau.

    Returns None after exhausting all patterns.
    """
    if patterns is None:
        patterns = game.tables.patterns
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
