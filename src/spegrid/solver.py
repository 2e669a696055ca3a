"""Outer refinement loop and the per-cube support tests.

The loop keeps a union of hypercubes that over-approximates the set of
subgame-perfect equilibrium payoff profiles.  Each pass tests every cube:
a cube survives when some (mixed) action profile and continuation payoffs
inside the current union make every unilateral deviation approximately
unprofitable.  A pass that removes nothing either terminates (every cube
meets the stopping criterion) or splits all cubes in half.

Three back-ends implement the cube test:

* pure             - pure action profiles, continuation inside one cluster,
* mixed-clusters   - mixed profiles, per-action continuations inside one
                     hyperrectangular cluster of the union,
* mixed-correlated - mixed profiles with a public correlation device, so
                     continuations may lie anywhere in the convex hull of
                     the union.

The two mixed back-ends share one support-LP builder and one search
driver; they differ only in the continuation region (a cluster box, or
the payoff box cut by the hull's half-planes).  They emulate the
associated mixed-integer programs exactly by support enumeration (see the
feasibility module).  Singleton patterns are decided in closed form before
touching the LP, and two screens reject hopeless patterns: a box screen on
per-action payoff ranges, then a mixture screen that clips each player's
simplex of opponent mixtures (a segment or a triangle) by that player's
utility rows.  Without hull rows the support LP splits into
exactly these per-player problems, so the mixture screen decides the
cluster LP and relaxes the hull LP.  Both screens reject only beyond one
margin, ``FEAS_TOL * (1 + max|payoff|)``, which covers the slack the
simplex accepts (derived at ``PayoffTables.screen_margin``), so they skip
only LPs that would fail.  The closed forms are cross-checked against the
LP in the test suite.  The stage payoffs they read (point masses,
conditional and best-deviation payoffs, per-pattern screen rows, payoff
bounds, the margin) come from the game's ``tables``, built once per game
object; the hull comes from the cube set's cache, which a withdrawal keeps
unless it moves the lowest or highest cell of a lattice column.

The default loop recomputes the punishment floor and the union context
before every cube test, matching the reference pseudocode exactly; the
rebuild after a withdrawal re-derives the hull only when the withdrawn
cube was the lowest or highest of its lattice column.  The
opt-in ``frozen_passes`` variant freezes both per pass and applies removals
at the pass end; it can only delay removals by one pass (never removes
more) and makes large runs much cheaper.  Between passes the previous
certificate of a cube is replayed against the current context before any
fresh search runs; a valid stored witness proves feasibility, so this is a
pure optimisation.  A certificate carries only its witness and the floor
its out-of-support continuations sit at: every replay takes the cube's
position, the floor and the continuation region from the cube set, so a
certificate passes unchanged through a replay at an unmoved floor and down
a split.  The loop, ``verify_certificate`` and ``verify_union`` derive that
context from a cube set in one place; ``verify_union`` builds it once per
cube set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .feasibility import (FEAS_TOL, UNDECIDED, LinearSystem, SupportPattern,
                          SupportSolution, alpha_var,
                          enumerate_support_patterns, solve_support_program,
                          w_var, wp_var)
from .game import (PROB_TOL, MixedProfile, StageGame,
                   conditional_payoff_table)
from .geometry import (Cluster, CubeSet, HalfPlane, Hypercube, get_clusters,
                       get_halfplanes, hull_box, hull_vertices, initial_cube,
                       split_all)

MODES = ("pure", "mixed-clusters", "mixed-correlated")
COMPLETIONS = ("bound", "exact")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: discount factor, target precision, back-end, and the
    stopping rule.  ``max_generations`` is a hard guard on split depth."""

    gamma: float
    epsilon: float
    mode: str = "mixed-correlated"
    completion: str = "bound"
    max_generations: int = 30
    frozen_passes: bool = False

    def __post_init__(self):
        # NaN fails every comparison, so the finiteness checks come first
        if not math.isfinite(self.gamma) or not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.completion not in COMPLETIONS:
            raise ValueError(f"completion must be one of {COMPLETIONS}")

    @property
    def bound_threshold(self) -> float:
        """Side length below which every cube is complete (worst case)."""
        return self.epsilon * (1.0 - self.gamma) / 2.0


@dataclass(frozen=True)
class SupportCertificate:
    """A feasible witness for one cube: nothing but the witness.

    Pure certificates hold the action profile and the continuation payoff
    point; mixed and correlated certificates carry a full SupportSolution
    and cache its ``conditional_payoffs`` (pure stage payoffs come from
    ``game.tables``; a certificate read from a file has no cached table, and
    its replay takes one from the game).  ``w_floor`` is the floor the
    out-of-support continuations are anchored at.  Which cube the witness
    is for, and the continuation region it was checked in, are not
    recorded: the dict key and the cube set supply them at every replay.
    """

    kind: str                                    # pure | mixed | correlated
    w_floor: tuple[float, ...]
    profile: Optional[tuple[int, ...]] = None
    continuation: Optional[tuple[float, ...]] = None
    solution: Optional[SupportSolution] = None
    conditional_payoffs: Optional[tuple[tuple[float, ...], ...]] = None

    def mixed_profile(self, game: StageGame) -> MixedProfile:
        if self.solution is not None:
            return self.solution.alpha
        return game.tables.point_masses[self.profile]

    def supports(self, game: StageGame) -> tuple[tuple[int, ...], ...]:
        if self.solution is not None:
            return tuple(self.solution.alpha.support(i)
                         for i in range(game.player_count))
        return tuple((a,) for a in self.profile)

    def continuation_point(self, profile) -> tuple[float, ...]:
        """Continuation payoff profile after an in-support outcome."""
        if self.kind == "pure":
            return self.continuation
        return tuple(self.solution.continuation(i, a)
                     for i, a in enumerate(profile))


@dataclass
class IterationStats:
    iteration: int
    generation: int
    side: float
    cubes_start: int
    removed: int
    split: bool
    wall_time: float


@dataclass
class SolveSnapshot:
    """Light view of the cube set at the end of one pass."""

    iteration: int
    generation: int
    side: float
    base: tuple[float, ...]
    indices: tuple[tuple[int, ...], ...]

    def origin_of(self, ix) -> tuple[float, ...]:
        return tuple(b + k * self.side for b, k in zip(self.base, ix))

    def origins(self) -> list[tuple[float, ...]]:
        return [self.origin_of(ix) for ix in self.indices]


@dataclass
class SolveReport:
    """Outcome of a run: per-pass trace, the final cube set, and one
    certificate per surviving cube.  An empty final set is a reported
    result (status ``empty``), not an exception."""

    status: str                       # converged | empty | generation_guard
    final: CubeSet
    certificates: dict
    iterations: list[IterationStats] = field(default_factory=list)
    config: Optional[SolverConfig] = None

    @property
    def empty(self) -> bool:
        return len(self.final) == 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def trace_key(self):
        """Deterministic part of the report, for run-equality checks."""
        return (self.status,
                tuple((s.iteration, s.generation, s.side, s.cubes_start,
                       s.removed, s.split) for s in self.iterations),
                tuple(self.final.indices()))


# -- shared context of one cube test ------------------------------------------

@dataclass
class _Context:
    w_floor: tuple[float, ...]
    clusters: Optional[list[Cluster]] = None
    halfplanes: Optional[tuple[HalfPlane, ...]] = None
    hull_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None


def _build_context(C: CubeSet, hull: bool) -> _Context:
    """The floor and the continuation regions of the union C: its clusters,
    or (``hull``, the correlated back-end) the hull's half-planes and
    bounding box.  The only place the solver derives them from a cube set."""
    ctx = _Context(w_floor=C.min_origin())
    if hull:
        # All three read the set's hull cache; the vertices are looked up
        # here only so that perfbench's tracer records each build's hull.
        hull_vertices(C)
        ctx.halfplanes = get_halfplanes(C)
        ctx.hull_box = hull_box(C)
    else:
        ctx.clusters = get_clusters(C)
    return ctx


# -- stage-payoff tables -------------------------------------------------------

def _conditional_payoffs(cert: SupportCertificate, game: StageGame):
    """The conditional payoffs a mixed certificate's replay reads: its own
    table, or for a certificate read from a file (which carries none) the
    game's table when its alpha is exactly a point mass, else a table
    computed from its alpha."""
    if cert.conditional_payoffs is not None:
        return cert.conditional_payoffs
    alpha = cert.solution.alpha
    supports = cert.solution.pattern.supports
    if all(len(s) == 1 for s in supports):
        profile = tuple(s[0] for s in supports)
        mass = game.tables.point_masses.get(profile)
        if mass is not None and all(map(np.array_equal, alpha.probs,
                                        mass.probs)):
            return game.tables.conditional[profile]
    return conditional_payoff_table(game, alpha)


# -- constraint systems ---------------------------------------------------------

def pure_support_system(cube: Hypercube, cluster: Cluster, w_floor,
                        game: StageGame, gamma: float,
                        profile) -> LinearSystem:
    """Linear system deciding whether `profile` supports `cube` with a
    continuation inside `cluster`: the utility recursion pins w' to the
    cube, the continuation stays in the cluster, and no player gains by
    deviating to a best response followed by the punishment floor."""
    n = game.player_count
    r_vals, br_vals = game.tables.pure[tuple(profile)]
    sys = LinearSystem()
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


def _cluster_box(cluster: Cluster):
    return cluster.origin, tuple(o + l for o, l in zip(cluster.origin,
                                                      cluster.lengths))


def mixed_cluster_system(cube: Hypercube, cluster: Cluster, w_floor,
                         game: StageGame, gamma: float,
                         pattern: SupportPattern) -> LinearSystem:
    """The support LP for one cluster and one support pattern."""
    return _support_system(cube, *_cluster_box(cluster), (), w_floor, game,
                           gamma, pattern)


def correlated_support_system(cube: Hypercube, halfplanes, w_floor, bounds,
                              game: StageGame, gamma: float,
                              pattern: SupportPattern) -> LinearSystem:
    """Support LP for the public-correlation back-end: no cluster, instead
    every in-support continuation pair must satisfy the half-planes of the
    convex hull of the current union."""
    return _support_system(cube, (bounds.low,) * 2, (bounds.high,) * 2,
                           halfplanes, w_floor, game, gamma, pattern)


def _support_system(cube: Hypercube, w_lo, w_hi, halfplanes, w_floor,
                    game: StageGame, gamma: float,
                    pattern: SupportPattern) -> LinearSystem:
    """The support LP of both mixed back-ends, which differ only in the
    region of the in-support continuations: the box [w_lo, w_hi] and, for
    every in-support pair, the half-planes (none for a cluster)."""
    sys = LinearSystem()
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


# -- closed-form deciders --------------------------------------------------------

def _pure_witness(cube_origin, side, cluster, w_floor, game, gamma, profile,
                  r_vals, br_vals):
    """Interval solution of the pure support system; None if infeasible."""
    w = []
    for i in range(game.player_count):
        lo = cluster.origin[i]
        hi = cluster.origin[i] + cluster.lengths[i]
        if gamma > 0.0:
            lo = max(lo,
                     (cube_origin[i] - (1.0 - gamma) * r_vals[i]) / gamma,
                     w_floor[i] + (1.0 - gamma) * (br_vals[i] - r_vals[i]) / gamma)
            hi = min(hi, (cube_origin[i] + side - (1.0 - gamma) * r_vals[i]) / gamma)
        else:
            if not cube_origin[i] - FEAS_TOL <= r_vals[i] <= cube_origin[i] + side + FEAS_TOL:
                return None
            if r_vals[i] < br_vals[i] - FEAS_TOL:
                return None
        if lo > hi + FEAS_TOL:
            return None
        w.append(min(lo, hi))
    return tuple(w)


def _out_of_support_ok(cube_origin, w_floor, gamma, cond, supports):
    for i in range(2):
        in_supp = set(supports[i])
        for a in range(len(cond[i])):
            if a in in_supp:
                continue
            if (1.0 - gamma) * cond[i][a] + gamma * w_floor[i] \
                    > cube_origin[i] + FEAS_TOL:
                return False
    return True


def _point_mass_solution(game, gamma, pattern, w_floor, w_in, cond):
    """Assemble the SupportSolution for a feasible singleton pattern."""
    profile = tuple(s[0] for s in pattern.supports)
    conts, utils = [], []
    for i in range(2):
        crow, urow = [], []
        for a in range(game.action_count(i)):
            wv = w_in[i] if a == profile[i] else w_floor[i]
            crow.append(wv)
            urow.append((1.0 - gamma) * cond[i][a] + gamma * wv)
        conts.append(tuple(crow))
        utils.append(tuple(urow))
    return SupportSolution(game.tables.point_masses[profile],
                           tuple(conts), tuple(utils), pattern)


def _singleton_cluster_solution(cube_origin, side, cluster, w_floor, game,
                                gamma, pattern):
    profile = tuple(s[0] for s in pattern.supports)
    cond = game.tables.conditional[profile]
    if not _out_of_support_ok(cube_origin, w_floor, gamma, cond, pattern.supports):
        return None
    w_in = []
    for i in range(2):
        r_i = cond[i][profile[i]]
        c_lo = cluster.origin[i]
        c_hi = cluster.origin[i] + cluster.lengths[i]
        if gamma > 0.0:
            lo = max(cube_origin[i], (1.0 - gamma) * r_i + gamma * c_lo)
            hi = min(cube_origin[i] + side, (1.0 - gamma) * r_i + gamma * c_hi)
            if lo > hi + FEAS_TOL:
                return None
            wp = min(lo, hi)
            w = (wp - (1.0 - gamma) * r_i) / gamma
            w = min(max(w, c_lo), c_hi)
        else:
            if not cube_origin[i] - FEAS_TOL <= r_i <= cube_origin[i] + side + FEAS_TOL:
                return None
            w = c_lo
        w_in.append(w)
    return _point_mass_solution(game, gamma, pattern, w_floor, w_in, cond)


def _clip(poly, rows, tol=FEAS_TOL):
    """Sutherland-Hodgman clipping of a convex polygon (a list of points of
    any length, in cyclic order; a segment or a single point works too) by
    the constraints ``sum_k row[k] * x[k] <= row[-1]``.  A vertex within
    ``tol`` of a constraint is kept; crossings are cut where the constraint
    is tight.  Returns the clipped vertex list, empty when nothing is left."""
    dim = len(poly[0])
    for row in rows:
        if not poly:
            return []
        vals = []
        for p in poly:
            v = row[0] * p[0]
            for k in range(1, dim):
                v += row[k] * p[k]
            vals.append(v - row[dim])
        out = []
        k = len(poly)
        for idx in range(k):
            cur, nxt = poly[idx], poly[(idx + 1) % k]
            vc, vn = vals[idx], vals[(idx + 1) % k]
            if vc <= tol:
                out.append(cur)
            if (vc <= tol) != (vn <= tol):
                denom = vc - vn
                if abs(denom) > 1e-15:
                    t = vc / denom
                    out.append(tuple([c + t * (n - c)
                                      for c, n in zip(cur, nxt)]))
        poly = out
    return poly


def _singleton_correlated_solution(cube_origin, side, halfplanes, w_floor,
                                   bounds, game, gamma, pattern):
    profile = tuple(s[0] for s in pattern.supports)
    cond = game.tables.conditional[profile]
    if not _out_of_support_ok(cube_origin, w_floor, gamma, cond, pattern.supports):
        return None
    lo, hi = [], []
    for i in range(2):
        r_i = cond[i][profile[i]]
        if gamma > 0.0:
            wlo = max(bounds.low, (cube_origin[i] - (1.0 - gamma) * r_i) / gamma)
            whi = min(bounds.high,
                      (cube_origin[i] + side - (1.0 - gamma) * r_i) / gamma)
        else:
            if not cube_origin[i] - FEAS_TOL <= r_i <= cube_origin[i] + side + FEAS_TOL:
                return None
            wlo, whi = bounds.low, bounds.high
        if wlo > whi + FEAS_TOL:
            return None
        lo.append(wlo)
        hi.append(max(whi, wlo))
    poly = _clip([(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]),
                  (lo[0], hi[1])], halfplanes)
    if not poly:
        return None
    w_in = min(poly)
    return _point_mass_solution(game, gamma, pattern, w_floor, list(w_in), cond)


def _screen_pattern(cube_origin, side, pattern, game, gamma, w_floor,
                    win_lo, win_hi):
    """Cheap necessary conditions for a pattern; False only when the pattern
    is certainly infeasible regardless of the mixture probabilities: some
    utility row misses by more than the screens' margin at every mixture."""
    margin = game.tables.screen_margin
    for i, rows in enumerate(game.tables.screens[pattern.supports]):
        for in_supp, v_min, v_max, _ in rows:
            if in_supp:
                lo = (1.0 - gamma) * v_min + gamma * win_lo[i]
                hi = (1.0 - gamma) * v_max + gamma * win_hi[i]
                if hi < cube_origin[i] - margin \
                        or lo > cube_origin[i] + side + margin:
                    return False
            elif (1.0 - gamma) * v_min + gamma * w_floor[i] \
                    > cube_origin[i] + margin:
                return False
    return True


# The simplex of mixtures over k actions, as a segment or a triangle of
# probability vectors.  Against a single action the mixture is a point, and
# the box screen has already decided that case exactly.
_SIMPLICES = {k: [tuple(float(b == a) for b in range(k)) for a in range(k)]
              for k in (2, 3)}


def _screen_mixtures(cube_origin, side, pattern, game, gamma, w_floor,
                     win_lo, win_hi):
    """The support LP without hull rows, decided per player: False when no
    mixture of the opponent over its support (two or three actions) lets
    every utility row of the player hold with continuations in the window
    [win_lo, win_hi] (in support) or at the floor (out of support).

    Without hull rows a player's rows involve only the opponent's mixture,
    so this is the cluster LP's own question, up to the screens' margin; the
    hull LP adds rows, so for it this is a relaxation.  Either way only
    patterns the LP rejects are rejected."""
    margin = game.tables.screen_margin
    g1 = 1.0 - gamma
    for i, rows in enumerate(game.tables.screens[pattern.supports]):
        simplex = _SIMPLICES.get(len(pattern.supports[1 - i]))
        if simplex is None:
            continue
        o = cube_origin[i]
        # (1-g) E[r] + g win_hi >= o, (1-g) E[r] + g win_lo <= o + side in
        # support, (1-g) E[r] + g floor <= o out of it
        reach = gamma * win_hi[i] - o + margin
        stay = o + side - gamma * win_lo[i] + margin
        deviate = o - gamma * w_floor[i] + margin
        planes = []
        for in_supp, _, _, vals in rows:
            up = [g1 * v for v in vals]
            if in_supp:
                planes.append([-u for u in up] + [reach])
                planes.append(up + [stay])
            else:
                planes.append(up + [deviate])
        if not _clip(simplex, planes, tol=0.0):
            return False
    return True


# -- cube tests -------------------------------------------------------------------

def cube_supported_pure(cube: Hypercube, C: CubeSet, w_floor, game: StageGame,
                        gamma: float,
                        clusters: Optional[Sequence[Cluster]] = None
                        ) -> Optional[SupportCertificate]:
    """First (cluster, pure profile) witness supporting the cube, or None.

    Clusters are scanned in construction order and profiles in lexicographic
    order, so the result is deterministic.
    """
    if clusters is None:
        clusters = _build_context(C, hull=False).clusters
    tables = game.tables.pure.items()
    for cluster in clusters:
        for profile, (r_vals, br_vals) in tables:
            w = _pure_witness(cube.origin, cube.side, cluster, w_floor, game,
                              gamma, profile, r_vals, br_vals)
            if w is not None:
                return SupportCertificate(kind="pure", w_floor=tuple(w_floor),
                                          profile=profile, continuation=w)
    return None


def _search_regions(cube: Hypercube, w_floor, game: StageGame, gamma: float,
                    patterns, kind: str, regions
                    ) -> Optional[SupportCertificate]:
    """The search driver of both mixed back-ends.  Each region is a
    (singleton decider, support-LP builder, screen window) tuple; the first
    region whose support program finds a pattern yields the certificate,
    pure patterns first."""
    if game.player_count != 2:
        raise ValueError("mixed cube tests require exactly two players")
    for singleton, builder, window in regions:

        def shortcut(pattern):
            if pattern.is_pure():
                return singleton(pattern)
            args = (cube.origin, cube.side, pattern, game, gamma, w_floor,
                    *window)
            # the box screen reads precomputed bounds and rejects most
            # hopeless patterns before the clipper runs
            if not _screen_pattern(*args) or not _screen_mixtures(*args):
                return None
            return UNDECIDED

        sol = solve_support_program(builder, game, patterns=patterns,
                                    shortcut=shortcut)
        if sol is not None:
            if sol.pattern.is_pure():
                cond = game.tables.conditional[
                    tuple(s[0] for s in sol.pattern.supports)]
            else:
                cond = conditional_payoff_table(game, sol.alpha)
            return SupportCertificate(kind=kind, w_floor=tuple(w_floor),
                                      solution=sol, conditional_payoffs=cond)
    return None


def cube_supported_mixed(cube: Hypercube, C: CubeSet, w_floor,
                         game: StageGame, gamma: float,
                         clusters: Optional[Sequence[Cluster]] = None,
                         patterns: Optional[Sequence[SupportPattern]] = None
                         ) -> Optional[SupportCertificate]:
    """Mixed-strategy cube test over hyperrectangular clusters (2 players).

    Each cluster, in construction order, is one region: the in-support
    continuations stay inside its box.
    """
    if clusters is None:
        clusters = _build_context(C, hull=False).clusters
    regions = ((partial(_singleton_cluster_solution, cube.origin, cube.side,
                        cl, w_floor, game, gamma),
                partial(mixed_cluster_system, cube, cl, w_floor, game, gamma),
                _cluster_box(cl))
               for cl in clusters)
    return _search_regions(cube, w_floor, game, gamma, patterns, "mixed",
                           regions)


def cube_supported_correlated(cube: Hypercube, C: CubeSet, game: StageGame,
                              gamma: float,
                              halfplanes: Optional[Sequence[HalfPlane]] = None,
                              w_floor=None, hull_box=None,
                              patterns: Optional[Sequence[SupportPattern]] = None
                              ) -> Optional[SupportCertificate]:
    """Cube test with public correlation: continuations anywhere in the
    convex hull of the union.  The single region is the payoff box cut by
    the hull's half-planes; the screen window is the hull's bounding box."""
    if halfplanes is None or w_floor is None or hull_box is None:
        ctx = _build_context(C, hull=True)
        halfplanes = ctx.halfplanes if halfplanes is None else halfplanes
        w_floor = ctx.w_floor if w_floor is None else w_floor
        hull_box = hull_box or ctx.hull_box
    bounds = game.tables.bounds
    region = (partial(_singleton_correlated_solution, cube.origin, cube.side,
                      halfplanes, w_floor, bounds, game, gamma),
              partial(correlated_support_system, cube, halfplanes, w_floor,
                      bounds, game, gamma),
              (tuple(max(lo, bounds.low) for lo in hull_box[0]),
               tuple(min(hi, bounds.high) for hi in hull_box[1])))
    return _search_regions(cube, w_floor, game, gamma, patterns, "correlated",
                           [region])


# -- certificate replay --------------------------------------------------------------

def certificate_residual(cert: SupportCertificate, game: StageGame,
                         gamma: float, cube_origin, side, w_floor,
                         region) -> float:
    """Largest constraint violation of a certificate in the cube at
    ``cube_origin`` with ``side``, against the floor ``w_floor`` and the
    continuation ``region``: the union's clusters (pure and mixed), or its
    hull's half-planes (correlated).

    Out-of-support continuations are re-anchored at the punishment floor
    (always allowed), so only the floor-dependent inequality is checked for
    them.
    """
    if cert.kind == "pure":
        w = cert.continuation
        r_vals, br_vals = game.tables.pure[cert.profile]
        worst = _cluster_violation(region, [[x] for x in w])
        for i in range(len(w)):
            wp = (1.0 - gamma) * r_vals[i] + gamma * w[i]
            worst = max(worst, cube_origin[i] - wp, wp - cube_origin[i] - side)
            worst = max(worst, (1.0 - gamma) * (br_vals[i] - r_vals[i])
                        + gamma * (w_floor[i] - w[i]))
        return worst

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
                for pl in region:
                    worst = max(worst, pl.phi * w1 + pl.psi * w2 - pl.lam)
    for i in range(2):
        in_supp = set(supports[i])
        for a in range(game.action_count(i)):
            if a in in_supp:
                wp = (1.0 - gamma) * cond[i][a] + gamma * sol.continuation(i, a)
                worst = max(worst, cube_origin[i] - wp,
                            wp - cube_origin[i] - side)
            else:
                dev = (1.0 - gamma) * cond[i][a] + gamma * w_floor[i]
                worst = max(worst, dev - cube_origin[i])
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
                viol = max(viol, s.origin[i] - v, v - s.origin[i] - s.lengths[i])
        best = min(best, viol)
    return best


def verify_certificate(cert: SupportCertificate, game: StageGame, gamma: float,
                       C: CubeSet, index) -> bool:
    """Replay a certificate for the cube ``index`` of C against the union C
    (floor, clusters or hull) at the 1e-7 feasibility tolerance.  False
    when C has no such cube."""
    if index not in C:
        return False
    ctx = _build_context(C, hull=cert.kind == "correlated")
    return _replay_ok(cert, ctx, C.origin_of(index), C.side, game, gamma)


def verify_union(C: CubeSet, certificates: dict, game: StageGame,
                 gamma: float) -> bool:
    """Replay one certificate per cube of C against C, building the union
    context once.  Fails unless the certificates name exactly the cubes of
    C.  Payoff tables come from the game, so certificates read from a file
    need none."""
    if sorted(certificates) != C.indices():
        return False
    context = cache(lambda hull: _build_context(C, hull))
    counts = [game.action_count(i) for i in range(game.player_count)]
    for ix in C.indices():
        cert = certificates[ix]
        if not _fits_game(cert, counts):
            return False
        ctx = context(cert.kind == "correlated")
        if not _replay_ok(cert, ctx, C.origin_of(ix), C.side, game, gamma):
            return False
    return True


def _fits_game(cert: SupportCertificate, counts) -> bool:
    """Whether a certificate (read from a file, so unchecked) fits a game
    with ``counts[i]`` actions for player i: a known kind, one row per
    player, actions in range, one entry per action in every row, and no
    alpha mass on an action outside the pattern."""
    if cert.kind == "pure":
        return (len(cert.profile) == len(cert.continuation) == len(counts)
                and all(0 <= a < m for a, m in zip(cert.profile, counts)))
    if cert.kind not in ("mixed", "correlated"):
        return False
    sol = cert.solution
    rows = (sol.pattern.supports, sol.alpha.probs, sol.continuations,
            sol.utilities)
    if list(map(len, rows)) != [len(counts)] * len(rows):
        return False
    for supp, probs, w, wp, m in zip(*rows, counts):
        if not supp or min(supp) < 0 or max(supp) >= m \
                or not len(probs) == len(w) == len(wp) == m:
            return False
        outside = probs.tolist()
        for a in supp:
            outside[a] = 0.0
        if max(outside) > PROB_TOL:
            return False
    return True


def _refresh_certificate(cert: SupportCertificate, ctx: _Context, gamma: float,
                         game: StageGame) -> SupportCertificate:
    """A replayed certificate, with a mixed one's out-of-support
    continuations re-anchored at the current floor when the floor moved.
    A pure certificate has no out-of-support continuations to move."""
    if cert.kind == "pure" or cert.w_floor == ctx.w_floor:
        return cert
    sol = cert.solution
    cond = cert.conditional_payoffs
    conts, utils = [], []
    for i in range(2):
        supp = set(sol.pattern.supports[i])
        crow = list(sol.continuations[i])
        urow = list(sol.utilities[i])
        for a in range(game.action_count(i)):
            if a not in supp:
                crow[a] = ctx.w_floor[i]
                urow[a] = (1.0 - gamma) * cond[i][a] + gamma * ctx.w_floor[i]
        conts.append(tuple(crow))
        utils.append(tuple(urow))
    new_sol = SupportSolution(sol.alpha, tuple(conts), tuple(utils), sol.pattern)
    return replace(cert, w_floor=ctx.w_floor, solution=new_sol)


def _replay_ok(cert: SupportCertificate, ctx: _Context, cube_origin, side,
               game: StageGame, gamma: float) -> bool:
    region = ctx.halfplanes if cert.kind == "correlated" else ctx.clusters
    return certificate_residual(cert, game, gamma, cube_origin, side,
                                ctx.w_floor, region) <= FEAS_TOL


# -- stopping criterion ----------------------------------------------------------------

def cube_completed(cube: Hypercube, C: CubeSet, config: SolverConfig,
                   game: Optional[StageGame] = None,
                   certificates: Optional[dict] = None) -> bool:
    """Stopping test for one cube.

    Mode ``bound``: the side length is at or below epsilon*(1-gamma)/2,
    which is sufficient by the error and deviation-gain bounds.  Mode
    ``exact``: extract the automaton that starts in this cube and check the
    two conditions directly (payoff gap and best unilateral deviation gain
    both at most epsilon).
    """
    if config.completion == "bound":
        return C.side <= config.bound_threshold + 1e-12
    if game is None or certificates is None:
        raise ValueError("exact completion needs the game and certificates")
    from .automaton import automaton_value, best_deviation, extract_automaton

    M = extract_automaton(C, certificates, cube.center, game)
    u = automaton_value(M, config.gamma)[M.initial]
    for i in range(game.player_count):
        if cube.origin[i] - u[i] > config.epsilon + 1e-9:
            return False
        if best_deviation(M, i, config.gamma) - u[i] > config.epsilon + 1e-9:
            return False
    return True


def _all_completed(C: CubeSet, config: SolverConfig, game: StageGame,
                   certificates: dict) -> bool:
    # Termination can only fire on a pass with no withdrawals, and on such a
    # pass the set never changes mid-pass, so evaluating the completion
    # flags at the end of the pass is exactly equivalent to the per-cube
    # check inside the loop.
    if config.completion == "bound":
        return C.side <= config.bound_threshold + 1e-12
    from .automaton import automaton_value, build_full_automaton, deviation_values

    M = build_full_automaton(C, certificates, game)
    u = automaton_value(M, config.gamma)
    origins = np.array([st.cube.origin for st in M.states])
    for i in range(game.player_count):
        if np.any(origins[:, i] - u[:, i] > config.epsilon + 1e-9):
            return False
        dev = deviation_values(M, i, config.gamma)
        if np.any(dev - u[:, i] > config.epsilon + 1e-9):
            return False
    return True


# -- the refinement loop -----------------------------------------------------------------

def solve(game: StageGame, config: SolverConfig,
          snapshot_callback: Optional[Callable[[SolveSnapshot], None]] = None
          ) -> SolveReport:
    """Run the refinement loop until every cube is complete.

    Follows the reference pseudocode literally: sequential pass over cubes
    in deterministic (lexicographic) order, punishment floor recomputed
    before every cube test, in-place removal of unsupported cubes, and a
    full split when a pass removes nothing while some cube is incomplete.
    Termination requires a pass with no removal and all cubes complete; an
    empty set and a blown generation guard are reported as distinct
    statuses.
    """
    if config.mode != "pure" and game.player_count != 2:
        raise ValueError(f"mode {config.mode} requires exactly two players")
    C = initial_cube(game.tables.bounds, game.player_count)
    patterns = None
    if config.mode != "pure":
        patterns = enumerate_support_patterns(
            [game.action_count(i) for i in range(game.player_count)])
    certificates: dict = {}
    trace: list[IterationStats] = []
    iteration = 0
    cached, cached_version = None, None

    def current_context() -> _Context:
        nonlocal cached, cached_version
        if cached_version != C.version:
            cached, cached_version = _build_context(
                C, config.mode == "mixed-correlated"), C.version
        return cached

    def search(cube: Hypercube, ctx: _Context) -> Optional[SupportCertificate]:
        if config.mode == "pure":
            return cube_supported_pure(cube, C, ctx.w_floor, game,
                                       config.gamma, clusters=ctx.clusters)
        if config.mode == "mixed-clusters":
            return cube_supported_mixed(cube, C, ctx.w_floor, game,
                                        config.gamma, clusters=ctx.clusters,
                                        patterns=patterns)
        return cube_supported_correlated(
            cube, C, game, config.gamma, halfplanes=ctx.halfplanes,
            w_floor=ctx.w_floor, hull_box=ctx.hull_box,
            patterns=patterns)

    while True:
        iteration += 1
        started = time.perf_counter()
        order = list(C.indices())
        cubes_start = len(order)
        removed = 0
        pending_removals = []
        frozen_ctx = current_context() if config.frozen_passes else None
        for idx in order:
            ctx = frozen_ctx if config.frozen_passes else current_context()
            cube = C.cube_at(idx)
            cert = certificates.get(idx)
            if cert is not None and _replay_ok(cert, ctx, cube.origin,
                                               C.side, game, config.gamma):
                certificates[idx] = _refresh_certificate(cert, ctx,
                                                         config.gamma, game)
                continue
            cert = search(cube, ctx)
            if cert is not None:
                certificates[idx] = cert
                continue
            certificates.pop(idx, None)
            removed += 1
            if config.frozen_passes:
                pending_removals.append(idx)
            else:
                C.remove(idx)
                if len(C) == 0:
                    break
        for idx in pending_removals:
            C.remove(idx)

        split = False
        status = None
        if len(C) == 0:
            status = "empty"
        elif removed == 0:
            if _all_completed(C, config, game, certificates):
                status = "converged"
            elif C.generation + 1 > config.max_generations:
                status = "generation_guard"
            else:
                split = True
        trace.append(IterationStats(iteration, C.generation, C.side,
                                    cubes_start, removed, split,
                                    time.perf_counter() - started))
        if snapshot_callback is not None:
            snapshot_callback(SolveSnapshot(
                iteration=iteration, generation=C.generation, side=C.side,
                base=C.base, indices=tuple(C.indices())))
        if status is not None:
            return SolveReport(status=status, final=C, certificates=certificates,
                               iterations=trace, config=config)
        if split:
            parent, C = C, split_all(C)
            certificates = _inherit_certificates(certificates, parent, C,
                                                 game, config.gamma)


def _utility_values(cert: SupportCertificate, dim: int, game: StageGame,
                    gamma: float) -> list[float]:
    """The in-cube utility values of a certificate along one dimension."""
    if cert.kind == "pure":
        r = game.tables.pure[cert.profile][0][dim]
        return [(1.0 - gamma) * r + gamma * cert.continuation[dim]]
    sol = cert.solution
    return [sol.utility(dim, a) for a in sol.pattern.supports[dim]]


def _inherit_certificates(certificates: dict, parent: CubeSet, C: CubeSet,
                          game: StageGame, gamma: float) -> dict:
    """After ``parent`` is split into C, hand each certificate down, as it
    is, to the child cube that contains all its in-cube utilities.
    Inherited certificates are replayed against the new context before
    being trusted, so this only saves the fresh searches that would
    reproduce them."""
    inherited = {}
    for idx, cert in certificates.items():
        origin = parent.origin_of(idx)
        child = []
        ok = True
        for i in range(len(idx)):
            values = _utility_values(cert, i, game, gamma)
            mid = origin[i] + parent.side / 2.0
            if all(v <= mid for v in values):
                child.append(2 * idx[i])
            elif all(v >= mid for v in values):
                child.append(2 * idx[i] + 1)
            else:
                ok = False
                break
        if not ok:
            continue
        child = tuple(child)
        if child in C:
            inherited[child] = cert
    return inherited
