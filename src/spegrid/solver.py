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

All three take the pass's context (``_Context``).  The two mixed back-ends
share one support LP, one search driver and one certificate constructor
(``_mixed_certificate``); they differ only in the continuation region (a
cluster box, or the payoff box cut by the hull's half-planes).  They
emulate the associated mixed-integer programs exactly by support
enumeration (see the feasibility module), each pattern's LP filled from a
template (``_SupportTemplate``).  A box screen
on per-action payoff ranges, a function of the cube, region and pattern
alone, tests every pattern first.  A singleton that passes it gets its
witness in closed form (for the hull by clipping a box); any other pattern
meets a mixture screen that clips each player's simplex of opponent
mixtures (a segment or a triangle) by that player's utility rows, which
decides the cluster LP.  For the hull, a pattern that passes both meets the
in-support rows and the mixture screen again in a window cut to the hull
slices the opponent's in-support continuations can reach, which decides the
hull LP when one player is pure.  The screens reject only beyond one
margin, ``FEAS_TOL * (1 + max|payoff|)``, and the cut widens its slices, to
cover the slack the simplex accepts (derived at
``PayoffTables.screen_margin``), so they skip only LPs that would fail.
The stage payoffs they read come from the game's ``tables``, built once per
game object; the hull comes from the cube set's cache, which a withdrawal
keeps unless it changes a corner candidate of the hull.

The default loop recomputes the punishment floor and the union context
before every cube test, matching the reference pseudocode exactly.  The
opt-in ``frozen_passes`` variant freezes both per pass and applies removals
at the pass end; it can only delay removals by one pass and makes large
runs much cheaper.  Before any fresh search, a cube's previous certificate
is replayed against the current context; a valid stored witness proves
feasibility.  Each support row is one function that the deciders, screens
and replays share, so a decider rejects exactly where replay would.  Both
loops replay mixed certificates from one table per pass (``_ReplayTable``,
the only replay of a mixed certificate; pure ones replay through the scalar
``certificate_residual``): its rows are gathered once, and each row group
runs again only when what it reads, the floor or the region, moves.  A
frozen pass then runs the box screen of every (cube, region, pattern) it
must search in one numpy mask (``_pattern_mask``), its only box screen, and
for the hull decides every point mass the mask keeps in one array pass
(``_point_mass_witnesses``), whose solutions a search reads in place of
the scalar decider; the literal loop screens and decides cube by cube
through the scalar entries.  The constructor writes each mixed
certificate's replay row, so the table's gather only stacks rows.  A
certificate carries only its witness, that row and the floor its
out-of-support continuations sit at: replay takes the cube's position,
the floor and the region from the cube set, so a certificate
passes unchanged through a replay and down a split, and its out-of-support
entries, which nothing in the loop reads, are re-anchored at the final floor
once, for the report.  ``--verify`` and its one-certificate form
``verify_certificate`` (in the finalset module, which alone knows the file
format) read mixed certificates straight into the table's arrays and replay
them through ``_residual_kernel``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .feasibility import (_LE, FEAS_TOL, UNDECIDED, ArraySystem,
                          LinearSystem, SupportPattern, SupportSolution,
                          alpha_var, solve_support_program, w_var, wp_var)
from .game import (MixedProfile, StageGame, check_gamma, check_real,
                   conditional_payoff_table, is_integer)
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
        check_gamma(self.gamma)
        check_real("epsilon", self.epsilon)
        # NaN fails every comparison, so the finiteness check comes first
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.completion not in COMPLETIONS:
            raise ValueError(f"completion must be one of {COMPLETIONS}")
        if not is_integer(self.max_generations) or self.max_generations < 0:
            raise ValueError("max_generations must be an integer >= 0")
        if not isinstance(self.frozen_passes, bool):
            raise ValueError("frozen_passes must be a bool")

    @property
    def bound_threshold(self) -> float:
        """Side length below which every cube is complete (worst case)."""
        return self.epsilon * (1.0 - self.gamma) / 2.0


@dataclass(frozen=True)
class SupportCertificate:
    """A feasible witness for one cube: nothing but the witness.

    Pure certificates hold the action profile and the continuation payoff
    point; mixed and correlated certificates carry a full SupportSolution.
    ``w_floor`` is the floor the out-of-support continuations are anchored
    at.  Which cube the witness is for, and the continuation region it was
    checked in, are not recorded: the dict key and the cube set supply them
    at every replay.  ``row``, a mixed certificate's row of the replay
    table, is written by its one constructor, ``_mixed_certificate``; a
    certificate read from a file has none (``_replay_row``).
    """

    kind: str                                    # pure | mixed | correlated
    w_floor: tuple[float, ...]
    profile: Optional[tuple[int, ...]] = None
    continuation: Optional[tuple[float, ...]] = None
    solution: Optional[SupportSolution] = None
    row: Optional[tuple[float, ...]] = field(default=None, repr=False,
                                             compare=False)

    def mixed_profile(self, game: StageGame) -> MixedProfile:
        if self.solution is not None:
            return self.solution.alpha
        return game.tables.point_masses[self.profile]

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

    def origins(self) -> list[tuple[float, ...]]:
        return [tuple(b + k * self.side for b, k in zip(self.base, ix))
                for ix in self.indices]


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
    boxes: Optional[list] = None  # each cluster's (low, high) corners
    vertices: Optional[tuple[tuple[float, float], ...]] = None
    # per axis i: the range of the other coordinate spanned by the hull's
    # lowest and highest vertex along i
    extreme_span: Optional[tuple[tuple[float, float], ...]] = None
    halfplanes: Optional[tuple[HalfPlane, ...]] = None
    hull_box: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    window: Optional[tuple] = None  # the hull's screen window, on first use


def _build_context(C: CubeSet, hull: bool) -> _Context:
    """The floor and the continuation regions of the union C: its clusters
    and their boxes, or (``hull``, the correlated back-end) the hull's
    vertices, the span of its extreme vertices, its half-planes and bounding
    box.  The only place the solver derives them from a cube set."""
    ctx = _Context(w_floor=C.min_origin())
    if hull:
        # All three read the set's hull cache, looked up by name here so
        # that perfbench's tracer records each build's hull.
        ctx.vertices = verts = hull_vertices(C)
        ctx.extreme_span = tuple(
            tuple(sorted((min(verts, key=itemgetter(i))[1 - i],
                          max(verts, key=itemgetter(i))[1 - i])))
            for i in range(2))
        ctx.halfplanes = get_halfplanes(C)
        ctx.hull_box = hull_box(C)
    else:
        ctx.clusters = get_clusters(C)
        ctx.boxes = [_cluster_box(cl) for cl in ctx.clusters]
    return ctx


# -- support rows ---------------------------------------------------------------
# Each row of the support program once, valued as its left side less its
# right side: deciders reject, and replay fails, where a value exceeds the
# tolerance.  Only +, -, * and /, so floats and float64 arrays agree bitwise.

def _utility(q, w, gamma):
    """w' = (1-g) q + g w, for stage payoff q and continuation w."""
    return (1.0 - gamma) * q + gamma * w


def _continuation(wp, q, gamma):
    """The continuation whose ``_utility`` with q is wp (gamma > 0)."""
    return (wp - (1.0 - gamma) * q) / gamma


def _deviation(q, w_floor, bound, gamma):
    """A deviation's utility at the floor over the cube origin (out of
    support) or the profile's utility (a pure profile's best deviation)."""
    return _utility(q, w_floor, gamma) - bound


def _below(x, lo):
    """How far x lies below the interval [lo, lo + side]."""
    return lo - x


def _above(x, lo, side):
    """How far x lies above the interval [lo, lo + side]."""
    return x - (lo + side)


def _hull_row(phi, psi, lam, x, y):
    """How far (x, y) lies outside the half-plane phi x + psi y <= lam."""
    return phi * x + psi * y - lam


# -- support LPs --------------------------------------------------------------

def _cluster_box(cluster: Cluster):
    return cluster.origin, tuple(o + l for o, l in zip(cluster.origin,
                                                      cluster.lengths))


def mixed_cluster_system(cube: Hypercube, cluster: Cluster, w_floor,
                         game: StageGame, gamma: float,
                         pattern: SupportPattern) -> ArraySystem:
    """The support LP for one cluster and one support pattern."""
    return _support_template(game, gamma, pattern).system(
        cube, *_cluster_box(cluster), (), w_floor)


def correlated_support_system(cube: Hypercube, halfplanes, w_floor, bounds,
                              game: StageGame, gamma: float,
                              pattern: SupportPattern) -> ArraySystem:
    """Support LP for the public-correlation back-end: no cluster, instead
    every in-support continuation pair must satisfy the half-planes of the
    convex hull of the current union."""
    return _support_template(game, gamma, pattern).system(
        cube, (bounds.low,) * 2, (bounds.high,) * 2, halfplanes, w_floor)


def _support_template(game: StageGame, gamma: float,
                      pattern: SupportPattern) -> "_SupportTemplate":
    key, templates = ("lp", pattern.supports, gamma), game.tables.templates
    if key not in templates:
        templates[key] = _SupportTemplate(game, gamma, pattern.supports)
    return templates[key]


class _SupportTemplate:
    """The support LP of both mixed back-ends for one pattern and gamma:
    alpha_i(a), w_i(a) in the region's box and w'_i(a) in the cube per
    in-support action, w_i(a) in the floor's box and w'_i(a) <= the cube's
    origin per other action; rows sum the alphas to 1 and set w'_i(a) =
    (1-g) sum_b alpha_opp(b) r_i(a, b) + g w_i(a).  This defines the program
    whose in-cube, out-of-support and utility rows the support-row functions
    evaluate.  Those rows are compiled once; a cube fills in the bounds and,
    for the hull, a half-plane row per (in-support pair, half-plane)."""

    def __init__(self, game: StageGame, gamma: float, supports):
        # bounds as slots of the vector ``system`` fills (0, 1, -inf, then per
        # player box, cube, floor box); ``probe`` gives them their finiteness
        sys, at, probe = LinearSystem(), [], (0.0, 1.0, -np.inf) + (0.0,) * 12
        for i in range(2):
            k = 3 + 6 * i
            for a in range(game.action_count(i)):
                for name, lo, hi in (
                        ((alpha_var(i, a), 0, 1), (w_var(i, a), k, k + 1),
                         (wp_var(i, a), k + 2, k + 3)) if a in supports[i]
                        else ((w_var(i, a), k + 4, k + 5),
                              (wp_var(i, a), 2, k + 2))):
                    sys.add_variable(name, probe[lo], probe[hi])
                    at.append((lo, hi))
            sys.add_constraint({alpha_var(i, a): 1.0 for a in supports[i]},
                               "=", 1.0)
        for i in range(2):
            opp = 1 - i
            for a in range(game.action_count(i)):
                coeffs = {wp_var(i, a): 1.0, w_var(i, a): -gamma}
                for b in supports[opp]:
                    prof = (a, b) if i == 0 else (b, a)
                    coeffs[alpha_var(opp, b)] = \
                        0.0 - (1.0 - gamma) * game.payoff_to(prof, i)
                sys.add_constraint(coeffs, "=", 0.0)
        self.fixed = sys.compile()
        self.bounds_at = np.array(at).T
        of = {name: j for j, name in enumerate(self.fixed.names)}
        self.pairs = np.array([(of[w_var(0, a1)], of[w_var(1, a2)])
                               for a1 in supports[0] for a2 in supports[1]])

    def system(self, cube, w_lo, w_hi, halfplanes, w_floor) -> ArraySystem:
        o, s, f = cube.origin, cube.side, w_floor
        low, high = np.array([0.0, 1.0, -np.inf] + [
            v for i in (0, 1) for v in (w_lo[i], w_hi[i], o[i], o[i] + s,
                                        f[i], f[i] + s)])[self.bounds_at]
        fixed = self.fixed
        if not halfplanes:
            return fixed._replace(low=low, high=high)
        planes = np.array(halfplanes, dtype=float)
        if not np.isfinite(planes[:, :2]).all():
            raise ValueError("non-finite coefficient")
        pair, plane = np.divmod(np.arange(len(self.pairs) * len(planes)),
                                len(planes))
        cols, planes = self.pairs[pair], planes[plane]
        m, k = fixed.var.shape
        var = np.zeros((m + len(pair), max(k, 2)), dtype=np.intp)
        coef = np.zeros(var.shape)
        var[:m, :k], var[m:, :2] = fixed.var, cols
        coef[:m, :k], coef[m:, :2] = fixed.coef, planes[:, :2]
        A = np.concatenate((fixed.A, np.zeros((len(pair), fixed.A.shape[1]))))
        A[np.arange(m, len(var))[:, None], cols] = 0.0 + planes[:, :2]
        rel = np.concatenate((fixed.rel, np.full(len(pair), _LE)))
        return fixed._replace(low=low, high=high, A=A, var=var, coef=coef,
                              rel=rel,
                              rhs=np.concatenate((fixed.rhs, planes[:, 2])))


# -- closed-form deciders --------------------------------------------------------

def _pure_witness(cube_origin, side, cluster, w_floor, game, gamma, profile,
                  r_vals, br_vals) -> Optional[SupportCertificate]:
    """The pure support system's least witness in the cluster (the top when
    its interval is empty), as a certificate; None unless it replays."""
    w = []
    for i in range(game.player_count):
        lo = cluster.origin[i]
        hi = lo + cluster.lengths[i]
        if gamma > 0.0:
            deviation = _utility(br_vals[i], w_floor[i], gamma)
            lo = max(lo, _continuation(cube_origin[i], r_vals[i], gamma),
                     _continuation(deviation, r_vals[i], gamma))
            hi = min(hi, _continuation(cube_origin[i] + side, r_vals[i],
                                       gamma))
        w.append(min(lo, hi))
    cert = SupportCertificate(kind="pure", w_floor=tuple(w_floor),
                              profile=profile, continuation=tuple(w))
    if certificate_residual(cert, game, gamma, cube_origin, side, w_floor,
                            [cluster]) > FEAS_TOL:
        return None
    return cert


def _point_mass_solution(game, gamma, pattern, w_floor, w_in, cond):
    """Assemble the SupportSolution for a feasible singleton pattern."""
    profile = tuple(s[0] for s in pattern.supports)
    conts, utils = [], []
    for i in range(2):
        crow, urow = [], []
        for a in range(game.action_count(i)):
            wv = w_in[i] if a == profile[i] else w_floor[i]
            crow.append(wv)
            urow.append(_utility(cond[i][a], wv, gamma))
        conts.append(tuple(crow))
        utils.append(tuple(urow))
    return SupportSolution(game.tables.point_masses[profile],
                           tuple(conts), tuple(utils), pattern)


def _singleton_cluster_solution(cube_origin, side, box, w_floor, game, gamma,
                                pattern):
    """A singleton's witness, once the box screen in the cluster whose
    ``_cluster_box`` is ``box`` passed."""
    c_lo, c_hi = box
    profile = tuple(s[0] for s in pattern.supports)
    cond = game.tables.conditional[profile]
    w_in = list(c_lo)
    if gamma > 0.0:
        for i in range(2):
            r_i = cond[i][profile[i]]
            wp = min(max(cube_origin[i], _utility(r_i, c_lo[i], gamma)),
                     cube_origin[i] + side, _utility(r_i, c_hi[i], gamma))
            w_in[i] = min(max(_continuation(wp, r_i, gamma), c_lo[i]),
                          c_hi[i])
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
            # _hull_row of the point p, in any dimension
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


def _clip_box(lo, hi, rows):
    """``_clip`` of the box [lo, hi] by the half-planes ``rows``, clipping
    only by the rows that can act on it, with the same result.

    Rounding is monotone, so at every point of the box a row's value,
    computed as ``_clip`` computes it, lies between its values at the two
    corners the row's signs pick.  While every vertex lies in the box, a
    row whose larger corner value is within the clip's tolerance therefore
    keeps every vertex and is passed over, and one whose smaller corner
    value is beyond it keeps none.  A crossing cut from a vertex that lies
    outside a row but within the tolerance falls beyond that vertex,
    possibly outside the box; from then on every row is clipped."""
    poly = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    inside = True
    for row in rows:
        if inside:
            phi, psi, lam = row
            x_max, x_min = (hi[0], lo[0]) if phi > 0.0 else (lo[0], hi[0])
            y_max, y_min = (hi[1], lo[1]) if psi > 0.0 else (lo[1], hi[1])
            if _hull_row(phi, psi, lam, x_max, y_max) <= FEAS_TOL:
                continue
            if _hull_row(phi, psi, lam, x_min, y_min) > FEAS_TOL:
                return []
        poly = _clip(poly, (row,))
        if not poly:
            return []
        inside = all(lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]
                     for x, y in poly)
    return poly


def _singleton_correlated_solution(cube_origin, side, halfplanes, w_floor,
                                   bounds, game, gamma, pattern):
    """A singleton's witness, once the box screen passed: its continuation
    interval in the payoff bounds (gamma > 0) clipped by the hull."""
    lo, hi = [bounds.low] * 2, [bounds.high] * 2
    profile = tuple(s[0] for s in pattern.supports)
    cond = game.tables.conditional[profile]
    if gamma > 0.0:
        for i in range(2):
            r_i = cond[i][profile[i]]
            lo[i] = max(lo[i], _continuation(cube_origin[i], r_i, gamma))
            hi[i] = max(min(hi[i], _continuation(cube_origin[i] + side, r_i,
                                                 gamma)), lo[i])
    poly = _clip_box(lo, hi, halfplanes)
    if not poly:
        return None
    return _point_mass_solution(game, gamma, pattern, w_floor, min(poly), cond)


def _screen_pattern(cube_origin, side, pattern, game, gamma, w_floor, window,
                    hull):
    """The box screen of a pattern in a cluster's box or (``hull`` true) the
    hull's ``window``: False only when a row misses at every mixture by more
    than FEAS_TOL for a point mass, else the screens' margin.  It bounds each
    deviation at the floor by the cube, then runs ``_screen_support``."""
    tol = FEAS_TOL if pattern.pure else game.tables.screen_margin
    for i, rows in enumerate(game.tables.screens[pattern.supports]):
        o = cube_origin[i]
        for in_supp, v_min, _, _ in rows:
            if not in_supp and _deviation(v_min, w_floor[i], o, gamma) > tol:
                return False
    return _screen_support(cube_origin, side, pattern, game, gamma, window,
                           hull)


def _screen_support(cube_origin, side, pattern, game, gamma, window, hull):
    """The box screen's in-support rows: each utility, with continuations in
    the window, reaches the cube.  For a point mass in the hull (gamma > 0)
    they are its continuation interval [c0, c1] against the payoff bounds,
    where its decider clips; by monotone rounding they reject exactly where
    ``max(low, c0) - min(high, c1) > FEAS_TOL``."""
    tables = game.tables
    point = pattern.pure
    if point and hull and gamma > 0.0:
        low, high = tables.bounds.low, tables.bounds.high
        for i, rows in enumerate(tables.screens[pattern.supports]):
            o, r = cube_origin[i], rows[pattern.supports[i][0]][1]
            if _below(_continuation(o + side, r, gamma), low) > FEAS_TOL \
                    or _below(high, _continuation(o, r, gamma)) > FEAS_TOL:
                return False
        return True
    tol = FEAS_TOL if point else tables.screen_margin
    win_lo, win_hi = window
    for i, rows in enumerate(tables.screens[pattern.supports]):
        o = cube_origin[i]
        for in_supp, v_min, v_max, _ in rows:
            if in_supp and (
                    _below(_utility(v_max, win_hi[i], gamma), o) > tol
                    or _above(_utility(v_min, win_lo[i], gamma), o,
                              side) > tol):
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
        # clip planes of the box screen's rows, _below and _above of the
        # window's _utility in support and _deviation out of it
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


# How far from the hull an accepted LP may put a pair of in-support
# continuations (derived at ``PayoffTables.screen_margin``).
_HULL_SLACK = math.sqrt(2.0) * FEAS_TOL


def _slab_extent(vertices, axis, lo, hi):
    """The range along the other axis of the convex polygon ``vertices``
    (cyclic order) cut by the slab lo <= x[axis] <= hi, in one walk over
    its edges: the vertices inside the slab and the edges' crossings of its
    two lines.  None when the slab misses the polygon."""
    # The comparisons are written out: this walk runs once per slab of every
    # pattern the plain screens pass, and min/max calls double its cost.
    other = 1 - axis
    low, high = math.inf, -math.inf
    pu, pv = vertices[-1][axis], vertices[-1][other]
    for vert in vertices:
        u, v = vert[axis], vert[other]
        if lo <= u <= hi:
            if v < low:
                low = v
            if v > high:
                high = v
        # an edge ending on a line yields its end point, counted above
        if (pu < lo) != (u < lo):
            x = pv + (lo - pu) / (u - pu) * (v - pv)
            if x < low:
                low = x
            if x > high:
                high = x
        if (pu < hi) != (u < hi):
            x = pv + (hi - pu) / (u - pu) * (v - pv)
            if x < low:
                low = x
            if x > high:
                high = x
        pu, pv = u, v
    return (low, high) if low <= high else None


def _slice_window(cube_origin, side, pattern, game, gamma, window, hull):
    """The screen window [lo, hi] cut, per player, to the part of the hull
    the opponent's in-support continuations can reach (gamma > 0); None
    when a cut leaves nothing.  ``hull`` is the union's context.

    The opponent's in-cube rows for an in-support action b confine its
    continuation w_opp(b) to J(b), their ``_continuation`` interval: a
    slab.  Player i's in-support continuations are paired with w_opp(b) in
    the hull, so each lies in the projection onto axis i of the hull cut by
    that slab, for every b.  Both are widened so that no pattern the LP
    accepts is cut (see ``_HULL_SLACK``).  A slab that holds the hull's
    lowest and highest vertex along axis i projects onto the hull's whole
    range, which contains the window, so it is not walked.  When one player
    is pure and the other mixes over two or three actions (the mixture
    screen's reach), the screens with this window decide the support LP:
    the pure player's rows see only the opponent's mixture and their single
    continuation, and the opponent's rows only the opponent's own
    continuations, which the slabs carry into the pure player's window.
    With both players mixing it is a relaxation."""
    margin = game.tables.screen_margin
    g1 = 1.0 - gamma
    lo, hi = list(window[0]), list(window[1])
    for j, rows in enumerate(game.tables.screens[pattern.supports]):
        i = 1 - j
        o = cube_origin[j]
        ends_lo, ends_hi = hull.extreme_span[i]
        for in_supp, v_min, v_max, _ in rows:
            if not in_supp:
                continue
            s_lo = (o - g1 * v_max - margin) / gamma - _HULL_SLACK
            s_hi = (o + side - g1 * v_min + margin) / gamma + _HULL_SLACK
            if s_lo <= ends_lo and ends_hi <= s_hi:
                continue
            extent = _slab_extent(hull.vertices, j, s_lo, s_hi)
            if extent is None:
                return None
            lo[i] = max(lo[i], extent[0] - _HULL_SLACK)
            hi[i] = min(hi[i], extent[1] + _HULL_SLACK)
        if lo[i] > hi[i]:
            return None
    return tuple(lo), tuple(hi)


def _screen_hull_slices(cube_origin, side, pattern, game, gamma, w_floor,
                        window, hull) -> bool:
    """For the hull region (``hull``, the union's context) with gamma > 0:
    the window-reading screens (in-support rows, mixtures) run again with
    the window cut to the hull slices, for a pattern the plain screens
    passed.  False only when the support LP certainly fails."""
    cut = _slice_window(cube_origin, side, pattern, game, gamma, window, hull)
    if cut is None:
        return False
    if cut == window:
        return True
    args = (cube_origin, side, pattern, game, gamma)
    return _screen_support(*args, cut, hull) \
        and _screen_mixtures(*args, w_floor, *cut)


# -- cube tests -------------------------------------------------------------------

def cube_supported_pure(cube: Hypercube, C: CubeSet, game: StageGame,
                        gamma: float, ctx: Optional[_Context] = None
                        ) -> Optional[SupportCertificate]:
    """First (cluster, pure profile) witness supporting the cube, or None.

    ``ctx`` is C's context, built here when not given.  Clusters are scanned
    in construction order and profiles in lexicographic order, so the
    result is deterministic.
    """
    if ctx is None:
        ctx = _build_context(C, hull=False)
    tables = game.tables.pure.items()
    for cluster in ctx.clusters:
        for profile, (r_vals, br_vals) in tables:
            cert = _pure_witness(cube.origin, cube.side, cluster, ctx.w_floor,
                                 game, gamma, profile, r_vals, br_vals)
            if cert is not None:
                return cert
    return None


def _mixed_certificate(kind: str, w_floor, sol: SupportSolution,
                       game: StageGame) -> SupportCertificate:
    """The one constructor of a mixed or correlated certificate: it writes
    the replay row, a column per action of each player: the continuations,
    the conditional payoffs and whether the pattern holds the action.  The
    conditional payoffs are the game's shared table when the alpha is its
    shared point mass, else computed from the alpha (for an exact point
    mass, the same bits)."""
    tables, supports = game.tables, sol.pattern.supports
    profile = (supports[0][0], supports[1][0])
    if sol.alpha is tables.point_masses.get(profile):
        cond = tables.conditional[profile]
    else:
        cond = conditional_payoff_table(game, sol.alpha)
    w = sol.continuations
    return SupportCertificate(kind, tuple(w_floor), solution=sol,
                              row=w[0] + w[1] + cond[0] + cond[1]
                              + _support_columns(game, supports))


def _search_regions(cube: Hypercube, w_floor, game: StageGame, gamma: float,
                    kind: str, regions, mask=None
                    ) -> Optional[SupportCertificate]:
    """The search driver of both mixed back-ends.  Each region is a
    (singleton decider, support-LP builder, screen window, hull context or
    None) tuple; the first region whose support program finds a pattern
    yields the certificate, pure patterns first.  ``mask``, a frozen pass's
    rows of ``_pattern_mask`` for this cube (one per region, over
    ``game.tables.patterns``), holds the box screen's verdicts: the searches
    leave out the patterns it rejects, and a region with none left."""
    if game.player_count != 2:
        raise ValueError("mixed cube tests require exactly two players")
    patterns = game.tables.patterns
    for (singleton, builder, window, hull), keep in zip(
            regions, repeat(None) if mask is None else mask):
        cut = hull is not None and gamma > 0.0  # the hull-slice cut runs
        live = patterns
        if keep is not None:
            live = list(compress(patterns, keep))
            if not live:
                continue

        def shortcut(pattern):
            args = (cube.origin, cube.side, pattern, game, gamma, w_floor)
            # the box screen, where no mask holds its verdict, is the mask's
            # entry; it rejects most hopeless patterns before the clipper
            # runs, and the cut runs only after both
            if keep is None and not _screen_pattern(*args, window, hull):
                return None
            if pattern.pure:
                return singleton(pattern)
            if not _screen_mixtures(*args, *window):
                return None
            if cut and not _screen_hull_slices(*args, window, hull):
                return None
            return UNDECIDED

        sol = solve_support_program(builder, game, patterns=live,
                                    shortcut=shortcut)
        if sol is not None:
            return _mixed_certificate(kind, w_floor, sol, game)
    return None


def cube_supported_mixed(cube: Hypercube, C: CubeSet, game: StageGame,
                         gamma: float, ctx: Optional[_Context] = None,
                         mask=None) -> Optional[SupportCertificate]:
    """Mixed-strategy cube test over hyperrectangular clusters (2 players).

    Each of the context's clusters, in construction order, is one region:
    the in-support continuations stay inside its box.  ``ctx`` is C's
    context, built here when not given; ``mask`` is the cube's slice of a
    frozen pass's ``_pattern_mask``.
    """
    if ctx is None:
        ctx = _build_context(C, hull=False)
    w_floor = ctx.w_floor
    regions = ((partial(_singleton_cluster_solution, cube.origin, cube.side,
                        box, w_floor, game, gamma),
                partial(mixed_cluster_system, cube, cl, w_floor, game, gamma),
                box, None)
               for cl, box in zip(ctx.clusters, ctx.boxes))
    return _search_regions(cube, w_floor, game, gamma, "mixed", regions, mask)


def _hull_window(ctx: _Context, bounds):
    """The screen window of the hull region: its bounding box, cut to the
    payoff bounds; built once per context."""
    if ctx.window is None:
        ctx.window = (tuple(max(lo, bounds.low) for lo in ctx.hull_box[0]),
                      tuple(min(hi, bounds.high) for hi in ctx.hull_box[1]))
    return ctx.window


def cube_supported_correlated(cube: Hypercube, C: CubeSet, game: StageGame,
                              gamma: float, ctx: Optional[_Context] = None,
                              mask=None, decided=None
                              ) -> Optional[SupportCertificate]:
    """Cube test with public correlation: continuations anywhere in the
    convex hull of the union.  The single region is the payoff box cut by
    the hull's half-planes; the screen window is the hull's bounding box,
    cut per pattern to the hull slices.  ``ctx`` is C's context, built here
    when not given; ``mask`` is the cube's slice of a frozen pass's
    ``_pattern_mask``, and ``decided`` its entry of the pass's
    ``_point_mass_witnesses``, which stands in for the singleton decider.
    When that entry holds a witness, the support program meets the point
    masses the mask kept before it, rejected, and returns it."""
    if ctx is None:
        ctx = _build_context(C, hull=True)
    if decided:
        sol = solve_support_program(
            None, game, patterns=list(compress(game.tables.patterns, mask[0])),
            shortcut=decided.get)
        return _mixed_certificate("correlated", ctx.w_floor, sol, game)
    bounds = game.tables.bounds
    singleton = decided.get if decided is not None else partial(
        _singleton_correlated_solution, cube.origin, cube.side,
        ctx.halfplanes, ctx.w_floor, bounds, game, gamma)
    region = (singleton,
              partial(correlated_support_system, cube, ctx.halfplanes,
                      ctx.w_floor, bounds, game, gamma),
              _hull_window(ctx, bounds), ctx)
    return _search_regions(cube, ctx.w_floor, game, gamma, "correlated",
                           [region], mask)


def _pattern_mask(indices, C: CubeSet, ctx: _Context, game: StageGame,
                  gamma: float) -> np.ndarray:
    """The box screen of the searches of the cubes ``indices`` of C against
    ``ctx``, their only one: a boolean array of shape (cubes, regions,
    patterns), over ``game.tables.patterns``, False where it rejects the
    pair; the regions are ctx's clusters, or its hull.  Each entry is the
    search's scalar ``_screen_pattern`` call, by the same rows and
    tolerances on broadcast arrays.  Cubes are taken in chunks, as replay's
    region rows are."""
    tables = game.tables
    bounds = tables.bounds
    patterns = tables.patterns
    hull = ctx.halfplanes is not None
    windows = np.array([_hull_window(ctx, bounds)] if hull else ctx.boxes)
    # per player (in support, min, max) per own action and pattern, broadcast
    # over (own action, cube, region, pattern) so that the rows reduce fast
    if "mask" not in tables.templates:
        tables.templates["mask"] = [np.array(
            [[row[:3] for row in tables.screens[p.supports][i]]
             for p in patterns], dtype=float).T[:, :, None, None]
            for i in range(2)]
    pure = np.array([p.pure for p in patterns])
    tol = np.where(pure, FEAS_TOL, tables.screen_margin)
    origins = np.array(C.base) + np.array(indices, float).reshape(-1, 2) \
        * C.side
    ok = np.ones((len(indices), len(windows), len(patterns)), dtype=bool)
    step = max(1, _BATCH_ELEMENTS // (len(windows) * len(patterns) * max(
        game.action_count(i) for i in range(2))))
    for i, rows in enumerate(tables.templates["mask"]):
        in_supp, v_min, v_max = rows[0] > 0.0, rows[1], rows[2]
        lo = _utility(v_min, windows[:, 0, i, None], gamma)
        hi = _utility(v_max, windows[:, 1, i, None], gamma)
        for start in range(0, len(indices), step):
            o = origins[start:start + step, i, None, None]
            reject = np.where(
                in_supp, (_below(hi, o) > tol) | (_above(lo, o, C.side) > tol),
                _deviation(v_min, ctx.w_floor[i], o, gamma) > tol)
            if hull and gamma > 0.0:
                empty = (_below(_continuation(o + C.side, v_min, gamma),
                                bounds.low) > FEAS_TOL) \
                    | (_below(bounds.high, _continuation(o, v_min, gamma))
                       > FEAS_TOL)
                reject = np.where(in_supp & pure, empty, reject)
            ok[start:start + step] &= ~reject.any(axis=0)
    return ok


def _point_mass_witnesses(indices, keep, C: CubeSet, ctx: _Context,
                          game: StageGame, gamma: float) -> list:
    """The hull's singleton decider for the searches of the cubes
    ``indices`` of C against ``ctx``, a frozen pass's, all at once: per
    cube, {pattern: SupportSolution} for the first point mass, in
    ``game.tables.patterns`` order, that ``keep`` (their ``_pattern_mask``)
    kept and that has a witness, or {} when none has.

    Each entry is ``_singleton_correlated_solution``'s call, by its
    expressions on arrays: the continuation box, then ``_clip_box``'s test
    of the two corners each half-plane's signs pick.  The first row whose
    larger corner value is beyond FEAS_TOL rejects the box or cuts it; a box
    no row acts on is its own clip, whose least vertex is its low corner,
    and ``_clip_box`` clips a box a row cuts.  The witnesses'
    continuations and utilities come from arrays."""
    tables = game.tables
    if "points" not in tables.templates:
        # the point masses lead the patterns; per point mass its conditional
        # payoffs and in-support columns (a replay row's last two thirds)
        # and its own payoffs
        points = tables.patterns[:game.action_count(0) * game.action_count(1)]
        profiles = [tuple(s[0] for s in p.supports) for p in points]
        conds = [tables.conditional[prof] for prof in profiles]
        tables.templates["points"] = (
            points, [tables.point_masses[prof] for prof in profiles],
            np.array([cond[0] + cond[1] + _support_columns(game, p.supports)
                      for p, cond in zip(points, conds)]).reshape(
                          len(points), 2, -1),
            np.array([[cond[i][prof[i]] for i in range(2)]
                      for prof, cond in zip(profiles, conds)]))
    points, alphas, tail, r = tables.templates["points"]
    found = [{}] * len(indices)
    cube, point = np.nonzero(keep[:, 0, :len(points)])
    if not cube.size:
        return found
    bounds = tables.bounds
    o = (np.array(C.base) + np.array(indices, float).reshape(-1, 2)
         * C.side)[cube]
    lo, hi = np.full(o.shape, bounds.low), np.full(o.shape, bounds.high)
    if gamma > 0.0:
        # max(a, b) and min(a, b) keep a unless b is strictly beyond it
        c = _continuation(o, r[point], gamma)
        lo = np.where(c > lo, c, lo)
        c = _continuation(o + C.side, r[point], gamma)
        hi = np.where(c < hi, c, hi)
        hi = np.where(lo > hi, lo, hi)
    rows = ctx.halfplanes
    phi, psi, lam = np.array(rows, float).reshape(-1, 3).T
    alive, cut = np.ones(len(cube), bool), np.zeros(len(cube), bool)
    acting = np.zeros(len(cube), np.intp)  # the first row acting on the box
    step = max(1, _BATCH_ELEMENTS // max(1, len(phi)))
    for start in range(0, len(cube), step):
        part = slice(start, start + step)
        (x0, y0), (x1, y1) = lo[part, :, None].swapaxes(0, 1), \
            hi[part, :, None].swapaxes(0, 1)
        acts = ~(_hull_row(phi, psi, lam, np.where(phi > 0.0, x1, x0),
                           np.where(psi > 0.0, y1, y0)) <= FEAS_TOL)
        row = acts.argmax(axis=1)[:, None]
        hit = np.take_along_axis(acts, row, 1)[:, 0]
        rejects = hit & (np.take_along_axis(_hull_row(
            phi, psi, lam, np.where(phi > 0.0, x0, x1),
            np.where(psi > 0.0, y0, y1)), row, 1)[:, 0] > FEAS_TOL)
        alive[part], cut[part] = ~rejects, hit & ~rejects
        acting[part] = row[:, 0]
    # per cube its first live entry (the entries run cube by cube); a cut
    # one is clipped from its first acting row, the rows before it passing
    # over, and when nothing is left the cube's next entry is taken
    w = lo.copy()
    while True:
        live = np.flatnonzero(alive)
        first = live[np.diff(cube[live], prepend=-1) > 0]
        todo = first[cut[first]]
        if not todo.size:
            break
        for e, k in zip(todo.tolist(), acting[todo].tolist()):
            poly = _clip_box(lo[e].tolist(), hi[e].tolist(), rows[k:])
            if poly:
                w[e], cut[e] = min(poly), False
            else:
                alive[e] = False
    m = [game.action_count(i) for i in range(2)]
    player = np.repeat([0, 1], m)
    cols = tail[point[first]]
    conts = np.where(cols[:, 1] > 0.0, w[first][:, player],
                     np.array(ctx.w_floor)[player])
    utils = _utility(cols[:, 0], conts, gamma)
    for c, p, w0, w1, u0, u1 in zip(
            cube[first].tolist(), point[first].tolist(),
            *(map(tuple, part.tolist()) for a in (conts, utils)
              for part in (a[:, :m[0]], a[:, m[0]:]))):
        found[c] = {points[p]: SupportSolution(alphas[p], (w0, w1), (u0, u1),
                                               points[p])}
    return found


# -- certificate replay --------------------------------------------------------------

def certificate_residual(cert: SupportCertificate, game: StageGame,
                         gamma: float, cube_origin, side, w_floor,
                         region) -> float:
    """Largest constraint violation of a pure certificate in the cube at
    ``cube_origin`` with ``side``, against the floor ``w_floor`` and the
    union's clusters ``region``.  Mixed certificates replay only through
    ``_ReplayTable``; for them this raises ValueError."""
    if cert.kind != "pure":
        raise ValueError(f"a {cert.kind} certificate replays through the "
                         "replay table, not the pure residual")
    w = cert.continuation
    r_vals, br_vals = game.tables.pure[cert.profile]
    worst = _cluster_violation(region, w)
    for i in range(len(w)):
        wp = _utility(r_vals[i], w[i], gamma)
        worst = max(worst, _below(wp, cube_origin[i]),
                    _above(wp, cube_origin[i], side),
                    _deviation(br_vals[i], w_floor[i], wp, gamma))
    return worst


def _cluster_violation(pool, point) -> float:
    """How far ``point`` is from fitting in one cluster of the pool: the
    least, over clusters, of its largest box violation, and never below
    0."""
    best = np.inf
    for s in pool:
        viol = 0.0
        for i, v in enumerate(point):
            viol = max(viol, _below(v, s.origin[i]),
                       _above(v, s.origin[i], s.lengths[i]))
        best = min(best, viol)
    return best


# Elements of the widest intermediate array of one region-row chunk.
_BATCH_ELEMENTS = 1 << 16


def _support_columns(game: StageGame, supports) -> tuple[float, ...]:
    """Per action of each player (player 0's first), 1.0 where ``supports``
    holds it, else 0.0: the last third of a replay row; built once per
    game."""
    key, templates = ("columns", supports), game.tables.templates
    if key not in templates:
        templates[key] = tuple(float(a in supports[i]) for i in range(2)
                               for a in range(game.action_count(i)))
    return templates[key]


def _replay_row(cert: SupportCertificate, game: StageGame):
    """A mixed certificate's row of ``_ReplayTable``: the one its
    constructor wrote, or, for a certificate read from a file, which has
    none, the one ``_mixed_certificate`` would write."""
    if cert.row is not None:
        return cert.row
    return _mixed_certificate(cert.kind, cert.w_floor, cert.solution,
                              game).row


def _certificate_rows(certificates: dict, indices, game: StageGame):
    """The mixed certificates ``certificates[ix]``, ix in ``indices``, as
    ``_ReplayTable``'s arrays, one ``_replay_row`` per certificate: the
    continuations, the conditional payoffs and the in-support mask."""
    m = game.action_count(0) + game.action_count(1)
    flat = chain.from_iterable([_replay_row(certificates[ix], game)
                                for ix in indices])
    table = np.fromiter(flat, float, 3 * m * len(indices)).reshape(
        len(indices), 3, m)
    return table[:, 0], table[:, 1], table[:, 2] > 0.0


# The residual's rows in three groups, by what each reads besides the
# certificate: the cube (in-cube rows), the floor (out-of-support rows) and
# the hull's half-planes or the clusters (region rows).  Each gives, per
# certificate, its largest term, by the scalar code's expressions in its
# order (no matmul, so no reassociation); ``o`` holds each column's cube
# origin.  ``np.fmax`` skips NaN as Python's ``max`` does.

def _in_cube_rows(o, w, q, in_supp, side, gamma):
    wp = _utility(q, w, gamma)
    return np.fmax.reduce(np.where(in_supp, np.fmax(
        _below(wp, o), _above(wp, o, side)), 0.0), axis=1, initial=0.0)


def _out_of_support_rows(o, q, in_supp, w_floor, gamma):
    # w_floor: per column, its player's floor
    return np.fmax.reduce(np.where(in_supp, 0.0, _deviation(
        q, w_floor, o, gamma)), axis=1, initial=0.0)


def _region_operands(w, in_supp, m, hull: bool):
    # For the hull, each certificate's first in-support continuation pair
    # (at least one each) and the pairs' two continuations; for clusters,
    # the in-support continuations (NaN elsewhere, which np.fmax skips).
    if not hull:
        return (np.where(in_supp, w, np.nan)[:, None, :],)
    owner, a1, a2 = np.nonzero(in_supp[:, :m[0], None]
                               & in_supp[:, None, m[0]:])
    return (np.searchsorted(owner, np.arange(len(w))), w[owner, a1, None],
            w[owner, m[0] + a2, None])


def _region_rows(operands, ctx: _Context, m, k):
    # For the certificates from row k on: the largest hull row over their
    # pairs, or how far their in-support continuations are from one cluster
    # (per cluster the largest box violation, at least 0; the least over
    # clusters).  In chunks whose widest intermediate has about
    # _BATCH_ELEMENTS elements.
    hull = ctx.halfplanes is not None
    if hull:
        first, w1, w2 = operands
        phi, psi, lam = np.array(ctx.halfplanes, dtype=float).T
    else:
        player = np.repeat([0, 1], m)
        low = np.array([cl.origin for cl in ctx.clusters])[:, player]
        lengths = np.array([cl.lengths for cl in ctx.clusters])[:, player]
    n = len(operands[0])
    step = max(1, _BATCH_ELEMENTS // (m[0] * m[1] * len(phi) if hull
                                      else low.size))
    out = [np.empty(0)]
    for start in range(k, n, step):
        stop = min(start + step, n)
        if hull:
            p0, p1 = first[start], first[stop] if stop < n else len(w1)
            rows = _hull_row(phi, psi, lam, w1[p0:p1], w2[p0:p1])
            out.append(np.fmax.reduceat(np.fmax.reduce(rows, axis=1),
                                        first[start:stop] - p0))
        else:
            v = operands[0][start:stop]
            out.append(np.fmax.reduce(np.fmax(
                _below(v, low), _above(v, low, lengths)),
                axis=2, initial=0.0).min(axis=1))
    return np.concatenate(out)


class _ReplayTable:
    """Mixed certificates of one kind for the cubes ``indices`` of C (a
    pass's stored ones in pass order, or a file's) as ``_certificate_rows``
    gives them, with their residuals against a context (the bits of the
    tests' scalar oracle) and replay verdicts ("no term above FEAS_TOL").
    Each row group runs when what it reads moves, for the rows not yet
    replayed: the in-cube rows once, the out-of-support rows when the floor
    changes, the region rows when the context's half-planes or clusters
    object changes.  So a frozen pass runs each group once, and the literal
    loop pays per withdrawal only for what moved.  Verdicts are asked for
    in row order; ``hull`` says which region the contexts hold."""

    def __init__(self, indices, w, q, in_supp, C: CubeSet, gamma: float, m,
                 hull: bool):
        self.row = {ix: k for k, ix in enumerate(indices)}
        self.m, self.q, self.in_supp, self.gamma = m, q, in_supp, gamma
        self.player = np.repeat([0, 1], m)
        index = np.array(indices, dtype=float).reshape(-1, 2)
        self.o = (np.array(C.base) + index * C.side)[:, self.player]
        self.in_cube = _in_cube_rows(self.o, w, q, in_supp, C.side, gamma)
        self.regions = _region_operands(w, in_supp, m, hull)
        self.out, self.fits = np.empty(len(w)), np.empty(len(w))
        self.ok = [False] * len(w)
        self.floor = self.region = None

    def _update(self, ctx: _Context, k: int) -> bool:
        # run the groups whose inputs moved for rows k on; whether any did
        moved = False
        if ctx.w_floor != self.floor:
            self.floor, moved = ctx.w_floor, True
            self.out[k:] = _out_of_support_rows(
                self.o[k:], self.q[k:], self.in_supp[k:],
                np.array(ctx.w_floor)[self.player], self.gamma)
        region = ctx.clusters if ctx.halfplanes is None else ctx.halfplanes
        if region is not self.region:  # held, so its id is not reused
            self.region, moved = region, True
            self.fits[k:] = _region_rows(self.regions, ctx, self.m, k)
        return moved

    def residuals(self, ctx: _Context) -> np.ndarray:
        """The largest of the three groups, a zero as +0.0, as the
        scalar's."""
        self._update(ctx, 0)
        return np.fmax(np.fmax(self.in_cube, self.out), self.fits) + 0.0

    def verdict(self, index, ctx: _Context) -> bool:
        k = self.row[index]
        if self._update(ctx, k):
            self.ok[k:] = (np.fmax(np.fmax(self.in_cube[k:], self.out[k:]),
                                   self.fits[k:]) <= FEAS_TOL).tolist()
        return self.ok[k]


def _residual_kernel(indices, w, q, in_supp, C: CubeSet, ctx: _Context,
                     gamma: float, m) -> np.ndarray:
    """``_ReplayTable``'s residuals of mixed certificates given as its
    arrays, against ``ctx``; ``--verify`` replays through it."""
    return _ReplayTable(indices, w, q, in_supp, C, gamma, m,
                        ctx.halfplanes is not None).residuals(ctx)


def _refresh_certificate(cert: SupportCertificate, w_floor, gamma: float,
                         game: StageGame) -> SupportCertificate:
    """A certificate with a mixed one's out-of-support continuations
    re-anchored at the floor ``w_floor`` when it moved.  A pure certificate
    has no out-of-support continuations to move."""
    if cert.kind == "pure" or cert.w_floor == w_floor:
        return cert
    sol, m = cert.solution, game.action_count(0)
    row = _replay_row(cert, game)
    q = row[len(row) // 3:]  # the conditional payoffs, player 0's first
    conts, utils = [], []
    for i, supp in enumerate(sol.pattern.supports):
        conts.append(tuple(w if a in supp else w_floor[i]
                           for a, w in enumerate(sol.continuations[i])))
        utils.append(tuple(u if a in supp else _utility(
            q[m * i + a], w_floor[i], gamma)
            for a, u in enumerate(sol.utilities[i])))
    return _mixed_certificate(cert.kind, w_floor, SupportSolution(
        sol.alpha, tuple(conts), tuple(utils), sol.pattern), game)


def _replay_ok(cert: SupportCertificate, ctx: _Context, C: CubeSet, index,
               game: StageGame, gamma: float, table: Optional[_ReplayTable]
               ) -> bool:
    """Whether ``cert`` replays for the cube ``index`` of C against ``ctx``:
    a mixed one by the pass's ``table``, a pure one by the scalar residual.
    The solver's one decision point per replay."""
    if cert.kind != "pure":
        return table.verdict(index, ctx)
    return certificate_residual(cert, game, gamma, C.origin_of(index), C.side,
                                ctx.w_floor, ctx.clusters) <= FEAS_TOL


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
    return _completed(C, config, game, certificates, start=cube.center)


def _completed(C: CubeSet, config: SolverConfig, game: Optional[StageGame],
               certificates: Optional[dict], start=None) -> bool:
    """The stopping test on the automaton extracted at the point ``start``,
    or, without one, on every cube of C in one automaton of all cubes.
    Termination can only fire on a pass with no withdrawals, on which the
    set never changes mid-pass, so testing every cube at the end of the pass
    is exactly the per-cube test inside the loop."""
    if config.completion == "bound":
        return C.side <= config.bound_threshold + 1e-12
    if game is None or certificates is None:
        raise ValueError("exact completion needs the game and certificates")
    from .automaton import (automaton_value, build_full_automaton,
                            deviation_values, extract_automaton)

    if start is None:
        M, states = build_full_automaton(C, certificates, game), slice(None)
    else:
        M = extract_automaton(C, certificates, start, game)
        states = [M.initial]
    u = automaton_value(M, config.gamma)[states]
    origins = np.array([st.cube.origin for st in M.states])[states]
    limit = config.epsilon + 1e-9
    if np.any(origins - u > limit):
        return False
    return not any(np.any(deviation_values(M, i, config.gamma)[states]
                          - u[:, i] > limit)
                   for i in range(game.player_count))


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

    def search(cube: Hypercube, ctx: _Context, mask,
               decided) -> Optional[SupportCertificate]:
        if config.mode == "pure":
            return cube_supported_pure(cube, C, game, config.gamma, ctx)
        if config.mode == "mixed-clusters":
            return cube_supported_mixed(cube, C, game, config.gamma, ctx, mask)
        return cube_supported_correlated(cube, C, game, config.gamma, ctx,
                                         mask, decided)

    while True:
        iteration += 1
        started = time.perf_counter()
        order = list(C.indices())
        cubes_start = len(order)
        removed = 0
        pending_removals = []
        frozen_ctx = table = None
        masks: dict = {}
        witnesses: dict = {}
        if config.mode != "pure":
            # the pass's stored certificates, gathered once for its replays
            stored = [idx for idx in order if idx in certificates]
            table = _ReplayTable(
                stored, *_certificate_rows(certificates, stored, game), C,
                config.gamma, [game.action_count(i) for i in range(2)],
                config.mode == "mixed-correlated")
        if config.frozen_passes:
            frozen_ctx = current_context()
            if table is not None:
                # every search reads this context: screen their patterns,
                # and decide the hull's point masses, now
                searched = [idx for idx in order if idx not in table.row
                            or not table.verdict(idx, frozen_ctx)]
                keep = _pattern_mask(searched, C, frozen_ctx, game,
                                     config.gamma)
                masks = dict(zip(searched, keep.tolist()))
                if frozen_ctx.halfplanes is not None:
                    witnesses = dict(zip(searched, _point_mass_witnesses(
                        searched, keep, C, frozen_ctx, game, config.gamma)))
        for idx in order:
            ctx = frozen_ctx if config.frozen_passes else current_context()
            cert = certificates.get(idx)
            if cert is not None and _replay_ok(cert, ctx, C, idx, game,
                                               config.gamma, table):
                continue
            cube = C.cube_at(idx)
            cert = search(cube, ctx, masks.get(idx), witnesses.get(idx))
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
            if _completed(C, config, game, certificates):
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
            if len(C):  # the report reads the out-of-support entries
                floor = C.min_origin()
                for idx, cert in certificates.items():
                    certificates[idx] = _refresh_certificate(
                        cert, floor, config.gamma, game)
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
        return [_utility(r, cert.continuation[dim], gamma)]
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
        child = ()
        for i in range(len(idx)):
            values = _utility_values(cert, i, game, gamma)
            mid = origin[i] + parent.side / 2.0
            if all(v <= mid for v in values):
                child += (2 * idx[i],)
            elif all(v >= mid for v in values):
                child += (2 * idx[i] + 1,)
            else:
                break
        else:
            if child in C:
                inherited[child] = cert
    return inherited
