"""Stage games and the primitive quantities everything else is built on.

A stage game is a finite normal-form game: per-player action labels and a
payoff tensor mapping every pure action profile to a payoff vector.  This
module provides mixed action profiles, payoff bounds and conditional
payoffs.

Quantities that depend only on the game (payoff bounds, point masses, the
conditional payoffs of every pure profile, the screen rows of every support
pattern and the screens' margin) live in ``StageGame.tables``: built on
first use, then shared by every cube test of every solve on that game
object, as do the solver's per-pattern arrays in ``tables.templates``.

All values are immutable after construction and safe to share across
threads (two threads may both build a template; the two are equal).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Probability mass below this is treated as zero (support membership).
PROB_TOL = 1e-9


def check_real(name: str, value) -> None:
    """Refuse a parameter that is a bool (an int subclass, so False would
    pass as 0) or no real number (a comparison would raise TypeError)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number")


def check_gamma(gamma: float) -> None:
    """The discount factor's rule, for a solve, for every verifier and for
    every automaton evaluation: a real number (``check_real``), finite and
    in [0, 1).  NaN fails every comparison, so the one chained test refuses
    it as it refuses the infinities."""
    check_real("gamma", gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")


@dataclass(frozen=True)
class StageGame:
    """A finite normal-form game.

    ``actions[i]`` holds player i's action labels; ``payoffs`` has shape
    ``(|A_0|, ..., |A_{n-1}|, n)`` so ``payoffs[a][i]`` is player i's payoff
    at pure profile ``a``.
    """

    actions: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray

    def __post_init__(self):
        actions = tuple(tuple(str(a) for a in acts) for acts in self.actions)
        object.__setattr__(self, "actions", actions)
        if not actions or any(len(acts) == 0 for acts in actions):
            raise ValueError("every player needs a non-empty action set")
        tensor = np.array(self.payoffs, dtype=float)
        expected = tuple(len(acts) for acts in actions) + (len(actions),)
        if tensor.shape != expected:
            raise ValueError(
                f"payoff tensor shape {tensor.shape} does not match actions "
                f"(expected {expected})"
            )
        if not np.all(np.isfinite(tensor)):
            raise ValueError("payoffs must be finite")
        tensor.setflags(write=False)
        object.__setattr__(self, "payoffs", tensor)

    @property
    def player_count(self) -> int:
        return len(self.actions)

    def action_count(self, player: int) -> int:
        return len(self.actions[player])

    def profiles(self):
        """All pure action profiles as index tuples, lexicographic order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def payoff(self, profile) -> np.ndarray:
        """Payoff vector at a pure profile of action indices."""
        return self.payoffs[tuple(profile)]

    def payoff_to(self, profile, player: int) -> float:
        return float(self.payoffs[tuple(profile) + (player,)])

    def label_profile(self, profile) -> tuple[str, ...]:
        return tuple(self.actions[i][a] for i, a in enumerate(profile))

    @cached_property
    def tables(self) -> "PayoffTables":
        """The game's stage-payoff tables.  The payoff tensor is read-only,
        so they never go stale."""
        return PayoffTables(self)


def distribution_error(rows: np.ndarray, player: int):
    """``(k, message)`` for the first row k of ``rows`` (probability vectors
    of ``player``, one per row) that is no distribution, or None.  A row
    must have a finite sum, no entry below -PROB_TOL and a sum within 1e-9
    of 1; the message names the first rule it breaks, after the player."""
    totals = rows.sum(axis=1)
    # NaN fails both comparisons, and a NaN or infinite entry makes the sum
    # non-finite, so such a row is never ok
    ok = (abs(totals - 1.0) <= 1e-9) & (rows >= -PROB_TOL).all(axis=1)
    if ok.all():
        return None
    k = int(ok.argmin())
    why = ("probabilities must be finite" if not math.isfinite(totals[k]) else
           "negative probability" if (rows[k] < -PROB_TOL).any() else
           f"probabilities sum to {totals[k]}")
    return k, f"player {player}: {why}"


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per player over that player's actions."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = []
        for i, p in enumerate(self.probs):
            v = np.array(p, dtype=float)
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"player {i}: probability vector expected")
            error = distribution_error(v[None], i)
            if error:
                raise ValueError(error[1])
            v = np.clip(v, 0.0, None)
            v.setflags(write=False)
            vecs.append(v)
        object.__setattr__(self, "probs", tuple(vecs))

    @classmethod
    def point_mass(cls, game: StageGame, profile) -> "MixedProfile":
        """The game's shared point mass on a pure profile."""
        return game.tables.point_masses[tuple(profile)]

    @classmethod
    def uniform(cls, game: StageGame) -> "MixedProfile":
        return cls(tuple(np.full(m, 1.0 / m) for m in
                         (game.action_count(i) for i in range(game.player_count))))

    @property
    def player_count(self) -> int:
        return len(self.probs)

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Per player, the actions with probability above PROB_TOL; read
        once per profile."""
        return tuple(tuple(np.flatnonzero(p > PROB_TOL).tolist())
                     for p in self.probs)

    def support(self, player: int) -> tuple[int, ...]:
        """Actions with probability above PROB_TOL."""
        return self.supports[player]


@dataclass(frozen=True)
class PayoffBounds:
    """Smallest and largest entry of a payoff tensor, over all players."""

    low: float
    high: float

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError("low > high")

    @property
    def spread(self) -> float:
        return self.high - self.low


def payoff_bounds(game: StageGame) -> PayoffBounds:
    """Min and max payoff across all profiles and players."""
    return game.tables.bounds


def _pure_best_deviation(game: StageGame, profile, player: int) -> float:
    best = -np.inf
    for a in range(game.action_count(player)):
        p = tuple(a if j == player else profile[j]
                  for j in range(game.player_count))
        best = max(best, game.payoff_to(p, player))
    return best


def _pure_payoffs(game: StageGame, profile):
    """Stage payoffs r_i(profile) and best-deviation payoffs, per player."""
    n = game.player_count
    return (tuple(game.payoff_to(profile, i) for i in range(n)),
            tuple(_pure_best_deviation(game, profile, i) for i in range(n)))


def conditional_payoff_table(game: StageGame, alpha: MixedProfile):
    """r_i(a_i | alpha) for every player and own action (two players)."""
    table = []
    for i in range(2):
        opp = 1 - i
        row = []
        for a in range(game.action_count(i)):
            val = 0.0
            for b, pb in enumerate(alpha.probs[opp]):
                if pb > 0.0:
                    prof = (a, b) if i == 0 else (b, a)
                    val += float(pb) * game.payoff_to(prof, i)
            row.append(val)
        table.append(tuple(row))
    return tuple(table)


def conditional_columns(alpha: np.ndarray, game: StageGame) -> np.ndarray:
    """``conditional_payoff_table`` of every row of ``alpha`` (a column per
    action, player 0's first) in its order: opponent actions ascending,
    only the terms of positive probability, from 0.0.  For an exact point
    mass that gives the bits of the game's shared table."""
    m = [game.action_count(i) for i in range(2)]
    opponent = (alpha[:, m[0]:], alpha[:, :m[0]])
    q = []
    for i in range(2):
        for a in range(m[i]):
            val = np.zeros(len(alpha))
            for b, pb in enumerate(opponent[i].T):
                r = game.payoff_to((a, b) if i == 0 else (b, a), i)
                val = np.where(pb > 0.0, val + pb * r, val)
            q.append(val)
    return np.stack(q, axis=1)


def _screen_rows(game: StageGame, supports):
    """Per player and own action: (in support, min and max payoff over the
    opponent's support, the payoffs against each action of that support),
    two players."""
    rows = []
    for i in range(2):
        opp = 1 - i
        in_supp = set(supports[i])
        row = []
        for a in range(game.action_count(i)):
            vals = tuple(game.payoff_to((a, b) if i == 0 else (b, a), i)
                         for b in supports[opp])
            row.append((a in in_supp, min(vals), max(vals), vals))
        rows.append(tuple(row))
    return tuple(rows)


class PayoffTables:
    """Stage-payoff quantities that depend only on the game.  Each table is
    built on first use; the two-player ones are never built for other games.

    * ``bounds``: the payoff bounds;
    * ``point_masses``: pure profile -> its point-mass MixedProfile;
    * ``pure``: pure profile -> ``_pure_payoffs`` (stage and best-deviation
      payoffs per player);
    * ``conditional``: pure profile -> ``conditional_payoff_table`` of its
      point mass (two players);
    * ``patterns``: every support pattern, in search order (two players);
    * ``screens``: support pattern -> ``_screen_rows`` (two players);
    * ``screen_margin``: the tolerance of the solver's pattern screens;
    * ``templates``: support-LP templates and mask rows, filled by the solver.
    """

    def __init__(self, game: StageGame):
        self._game = game
        self.templates: dict = {}

    @cached_property
    def bounds(self) -> PayoffBounds:
        payoffs = self._game.payoffs
        return PayoffBounds(float(payoffs.min()), float(payoffs.max()))

    @cached_property
    def screen_margin(self) -> float:
        # Phase 1 of the simplex accepts a support LP whose artificials sum
        # to at most FEAS_TOL.  One artificial is the slack eta of the
        # sum(alpha) = 1 row, the others the slacks of the utility rows; the
        # variable bounds hold exactly.  Renormalising alpha moves
        # (1-g) * E[r] by at most (1-g) * eta * max|r|, and a hull half-plane
        # (unit normal; the hull's extreme edges are axis-parallel) moves a
        # continuation past the hull's bounding box by at most its slack.  So
        # every accepted LP has a true mixture whose rows hold to within
        # FEAS_TOL * max(1, max|r|): a screen that rejects only beyond this
        # margin never rejects a pattern the LP accepts.
        #
        # The hull-slice cut (``solver._slice_window``) widens its slabs and
        # slices so that it, too, keeps every accepted pattern.  At the
        # phase-1 point of an accepted LP:
        # * the opponent's row for an in-support action b holds to within
        #   this margin at the renormalised mixture, so w_opp(b) lies in the
        #   box screen's interval J(b) widened by margin / gamma;
        # * each hull row holds to within its artificial, at most FEAS_TOL.
        #   With unit normals, the polygon whose edges are pushed out by
        #   FEAS_TOL has each vertex FEAS_TOL / sin(theta / 2) from the
        #   hull's, theta the interior angle.  A hull vertex is a corner of a
        #   square the hull contains, so theta >= 90 degrees, and every
        #   continuation pair lies within sqrt(2) * FEAS_TOL of a hull
        #   point q.
        # So q's opponent coordinate lies in J(b) widened by margin / gamma
        # + sqrt(2) * FEAS_TOL, and the player's continuation within
        # sqrt(2) * FEAS_TOL of q's: the slab is widened by the former and
        # the slice's extent by sqrt(2) * FEAS_TOL (``solver._HULL_SLACK``).
        # Where the cut window keeps an edge of the bounding box, the
        # continuation may pass it by its hull row's slack, which this
        # margin already covers.
        from .feasibility import FEAS_TOL

        bounds = self.bounds
        return FEAS_TOL * (1.0 + max(abs(bounds.low), abs(bounds.high)))

    @cached_property
    def point_masses(self) -> dict:
        game = self._game
        masses = {}
        for profile in game.profiles():
            vecs = []
            for i, a in enumerate(profile):
                v = np.zeros(game.action_count(i))
                v[a] = 1.0
                vecs.append(v)
            masses[profile] = MixedProfile(tuple(vecs))
        return masses

    @cached_property
    def pure(self) -> dict:
        return {p: _pure_payoffs(self._game, p) for p in self._game.profiles()}

    @cached_property
    def conditional(self) -> dict:
        return {p: conditional_payoff_table(self._game, mass)
                for p, mass in self.point_masses.items()}

    @cached_property
    def patterns(self) -> list:
        from .feasibility import enumerate_support_patterns

        return enumerate_support_patterns(
            [self._game.action_count(i) for i in range(2)])

    @cached_property
    def screens(self) -> dict:
        return {p.supports: _screen_rows(self._game, p.supports)
                for p in self.patterns}
