import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

import spegrid as sg
from spegrid.feasibility import (alpha_var, enumerate_support_patterns,
                                 w_var, wp_var)
from spegrid.solver import _build_context
from conftest import pure_support_system, random_game, rational_feasible


def simple_system(pairs, rels_rhs):
    sys = sg.LinearSystem()
    for name, lo, hi in pairs:
        sys.add_variable(name, low=lo, high=hi)
    for coeffs, rel, rhs in rels_rhs:
        sys.add_constraint(coeffs, rel, rhs)
    return sys


class TestSolveFeasibility:
    def test_contradictory_bounds(self):
        sys = sg.LinearSystem()
        sys.add_variable("x")
        sys.add_constraint({"x": 1.0}, ">=", 1.0)
        sys.add_constraint({"x": 1.0}, "<=", 0.0)
        assert sg.solve_feasibility(sys) is None

    def test_pinned_value(self):
        sys = simple_system([("x", 0.0, 1.0)], [({"x": 1.0}, "=", 0.5)])
        assert sg.solve_feasibility(sys) == {"x": pytest.approx(0.5)}

    def test_pure_support_system_for_pd(self, pd):
        # cube and cluster both [1.9, 2.1]^2, floor (0,0), mutual cooperation
        cube = sg.Hypercube((1.9, 1.9), 0.2)
        cluster = sg.Cluster((1.9, 1.9), (0.2, 0.2))
        sys = pure_support_system(cube, cluster, (0.0, 0.0), pd, 0.7, (0, 0))
        assert sg.solve_feasibility(sys) is not None
        # the stationary witness w = w' = (2,2) satisfies the system exactly;
        # its incentive slack is 0.3*2 + 0.7*2 - 0.3*3 - 0 = 1.1 >= 0
        point = {w_var(0, 0): 2.0, w_var(1, 0): 2.0,
                 wp_var(0, 0): 2.0, wp_var(1, 0): 2.0}
        assert sys.residual(point) <= 1e-12

    def test_unbounded_objective_is_distinct(self):
        sys = sg.LinearSystem()
        sys.add_variable("x", high=5.0)
        sys.set_objective({"x": 1.0})
        with pytest.raises(sg.UnboundedError):
            sg.solve_feasibility(sys)

    def test_objective_optimum(self):
        sys = simple_system(
            [("x", 0.0, 10.0), ("y", 0.0, 10.0)],
            [({"x": 1.0, "y": 1.0}, ">=", 4.0)])
        sys.set_objective({"x": 2.0, "y": 3.0})
        sol = sg.solve_feasibility(sys)
        assert sol["x"] + sol["y"] == pytest.approx(4.0, abs=1e-7)
        assert 2 * sol["x"] + 3 * sol["y"] == pytest.approx(8.0, abs=1e-6)

    def test_equality_chain(self):
        sys = simple_system(
            [("a", -np.inf, np.inf), ("b", -np.inf, np.inf)],
            [({"a": 1.0, "b": 2.0}, "=", 5.0),
             ({"a": -1.0, "b": 1.0}, "=", 1.0)])
        sol = sg.solve_feasibility(sys)
        assert sol["a"] == pytest.approx(1.0)
        assert sol["b"] == pytest.approx(2.0)

    def test_feasible_by_construction_never_reported_infeasible(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            nvar = int(rng.integers(2, 6))
            sys = sg.LinearSystem()
            point = {}
            for j in range(nvar):
                lo = float(rng.uniform(-5, 0))
                hi = float(rng.uniform(0.5, 5))
                sys.add_variable(f"x{j}", low=lo, high=hi)
                point[f"x{j}"] = float(rng.uniform(lo, hi))
            for _ in range(int(rng.integers(1, 7))):
                coeffs = {f"x{j}": float(rng.uniform(-2, 2))
                          for j in range(nvar)}
                lhs = sum(c * point[n] for n, c in coeffs.items())
                rel = rng.choice(["<=", ">=", "="])
                if rel == "<=":
                    sys.add_constraint(coeffs, rel, lhs + abs(rng.uniform(0, 2)))
                elif rel == ">=":
                    sys.add_constraint(coeffs, rel, lhs - abs(rng.uniform(0, 2)))
                else:
                    sys.add_constraint(coeffs, rel, lhs)
            sol = sg.solve_feasibility(sys)
            assert sol is not None
            assert sys.residual(sol) <= 1e-7

    def test_certified_infeasible_never_reported_feasible(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            nvar = int(rng.integers(1, 5))
            sys = sg.LinearSystem()
            for j in range(nvar):
                sys.add_variable(f"x{j}", low=-3.0, high=3.0)
            coeffs = {f"x{j}": float(rng.uniform(-2, 2)) for j in range(nvar)}
            cut = float(rng.uniform(-1, 1))
            # a contradictory pair with a comfortable gap
            sys.add_constraint(coeffs, "<=", cut)
            sys.add_constraint(coeffs, ">=", cut + 0.5)
            assert sg.solve_feasibility(sys) is None

    def test_phase_one_slack_at_tolerance_still_yields_a_point(self):
        # phase 1 ends with an artificial in the basis at a value just under
        # the feasibility tolerance; driving it out on the first usable
        # entry lands at residual 1e-6, past the 10 * 1e-7 check
        game = sg.StageGame((("a0", "a1"), ("b0", "b1")),
                            np.array([[(0.0, 0.0), (0.0, 0.0)],
                                      [(-0.1, 1.1), (0.0, 1.2)]]))
        # the hull of the box [-0.1, 0.225] x [0.225, 0.55]
        planes = (sg.HalfPlane(0.0, -1.0, -0.225), sg.HalfPlane(1.0, 0.0, 0.225),
                  sg.HalfPlane(0.0, 1.0, 0.55), sg.HalfPlane(-1.0, 0.0, 0.1))
        cube = sg.Hypercube((0.00625, 1.0024998999999999), 0.1)
        sys = sg.correlated_support_system(
            cube, planes, (-0.1, 0.225), sg.payoff_bounds(game), game, 0.1,
            sg.SupportPattern(((1,), (0, 1))))
        point = sg.solve_feasibility(sys)
        assert point is not None
        # the largest-entry drive-out keeps the slack at the tolerance
        assert sys.residual(point) <= 2e-7


class TestNonFiniteInputs:
    """A non-finite right-hand side or a NaN bound is refused, by name and
    in array form; without the checks the first two cases returned
    {'x': nan, 'y': inf} as a feasible point, x <= nan returned {'x': 0.0},
    and = nan, >= nan failed inside the ratio test."""

    @staticmethod
    def xy() -> sg.LinearSystem:
        sys = sg.LinearSystem()
        sys.add_variable("x", low=0.0, high=1.0)
        sys.add_variable("y")
        return sys

    @pytest.mark.parametrize("rel, rhs", [("=", np.inf), (">=", np.inf),
                                          ("<=", np.nan), ("=", np.nan),
                                          (">=", np.nan), ("<=", -np.inf)])
    def test_non_finite_right_hand_side(self, rel, rhs):
        sys = self.xy()
        with pytest.raises(ValueError, match="right-hand side"):
            sys.add_constraint({"x": 1.0, "y": 1.0}, rel, rhs)
        sys.add_constraint({"x": 1.0, "y": 1.0}, rel, 0.5)
        arrays = sys.compile()
        with pytest.raises(ValueError, match="right-hand side"):
            sg.solve_feasibility(arrays._replace(rhs=np.array([rhs])))

    @pytest.mark.parametrize("low, high", [(np.nan, 1.0), (0.0, np.nan),
                                           (np.nan, np.nan)])
    def test_nan_bound(self, low, high):
        sys = self.xy()
        with pytest.raises(ValueError, match="NaN bound"):
            sys.add_variable("z", low, high)
        arrays = sys.compile()
        with pytest.raises(ValueError, match="NaN bound"):
            sg.solve_feasibility(arrays._replace(
                low=np.array([low, -np.inf]), high=np.array([high, np.inf])))

    @pytest.mark.parametrize("low, high", [(np.inf, np.inf),
                                           (-np.inf, -np.inf)])
    def test_bound_without_a_finite_value(self, low, high):
        # low <= high holds, yet no number lies in [low, high]; the solver
        # used to end in "simplex returned a point with residual inf"
        sys = self.xy()
        with pytest.raises(ValueError, match="no finite value"):
            sys.add_variable("z", low, high)
        sys.add_constraint({"x": 1.0, "y": 1.0}, ">=", 0.5)
        arrays = sys.compile()
        with pytest.raises(ValueError, match="no finite value"):
            sg.solve_feasibility(arrays._replace(
                low=np.array([low, -np.inf]), high=np.array([high, np.inf])))

    def test_infinite_bounds_stay_legal(self):
        sys = self.xy()
        sys.add_variable("z", -np.inf, np.inf)
        sys.add_constraint({"x": 1.0, "z": 1.0}, "=", 2.0)
        point = sg.solve_feasibility(sys)
        assert point["x"] + point["z"] == pytest.approx(2.0)


class TestRationalCrossCheck:
    def test_verdicts_match_exact_arithmetic(self):
        rng = np.random.default_rng(303)
        checked = 0
        for _ in range(100):
            nvar = int(rng.integers(1, 5))
            sys = sg.LinearSystem()
            for j in range(nvar):
                sys.add_variable(f"x{j}", low=float(rng.integers(-4, 0)),
                                 high=float(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 6))):
                coeffs = {f"x{j}": float(rng.integers(-3, 4))
                          for j in range(nvar)}
                rel = str(rng.choice(["<=", ">=", "="]))
                sys.add_constraint(coeffs, rel, float(rng.integers(-6, 7)))
            got = sg.solve_feasibility(sys) is not None
            want = rational_feasible(sys)
            assert got == want
            checked += 1
        assert checked == 100


class TestSupportPatterns:
    def test_enumeration_order(self):
        pats = enumerate_support_patterns([2, 2])
        cards = [p.cardinality for p in pats]
        assert cards == sorted(cards)
        assert len(pats) == 9
        assert pats[0].supports == ((0,), (0,))
        assert all(p.pure for p in pats[:4])
        assert pats[-1].supports == ((0, 1), (0, 1))

    def test_count_for_2x3(self):
        assert len(enumerate_support_patterns([2, 3])) == 3 * 7

    def test_purity_is_stored_once_and_survives_a_copy(self):
        for p in enumerate_support_patterns([2, 3]):
            assert p.pure == (max(map(len, p.supports)) == 1)
            for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert q == p and q.pure == p.pure
                assert type(q) is type(p)
            # a replaced pattern works its purity out afresh
            mixed = p._replace(supports=((0, 1), (0,)))
            assert not mixed.pure and mixed._replace(
                supports=((1,), (2,))).pure


class TestSolveSupportProgram:
    def test_matching_pennies_stationarity(self, pennies):
        # w' = w pinned inside a tiny cube around (0,0): the only feasible
        # pattern is full support, and the mixture is the unique stage
        # equilibrium (uniform for both players)
        cube = sg.Hypercube((-5e-10, -5e-10), 1e-9)

        def builder(pattern):
            sys = sg.LinearSystem()
            for i in range(2):
                supp = set(pattern.supports[i])
                for a in range(2):
                    if a in supp:
                        sys.add_variable(alpha_var(i, a), low=0.0, high=1.0)
                    w_lo = cube.origin[i] if a in supp else -1.0
                    w_hi = cube.origin[i] + cube.side if a in supp else 1.0
                    sys.add_variable(w_var(i, a), low=w_lo, high=w_hi)
                    if a in supp:
                        sys.add_variable(wp_var(i, a), low=cube.origin[i],
                                         high=cube.origin[i] + cube.side)
                    else:
                        sys.add_variable(wp_var(i, a), high=cube.origin[i])
                sys.add_constraint({alpha_var(i, a): 1.0
                                    for a in pattern.supports[i]}, "=", 1.0)
            gamma = 0.4
            for i in range(2):
                opp = 1 - i
                for a in range(2):
                    coeffs = {wp_var(i, a): 1.0, w_var(i, a): -gamma}
                    for b in pattern.supports[opp]:
                        prof = (a, b) if i == 0 else (b, a)
                        coeffs[alpha_var(opp, b)] = \
                            -(1 - gamma) * pennies.payoff_to(prof, i)
                    sys.add_constraint(coeffs, "=", 0.0)
                    # stationarity: w equals w'
                    sys.add_constraint({wp_var(i, a): 1.0, w_var(i, a): -1.0},
                                       "=", 0.0)
            return sys

        sol = sg.solve_support_program(builder, pennies)
        assert sol is not None
        assert sol.pattern.supports == ((0, 1), (0, 1))
        for i in range(2):
            assert sol.alpha.probs[i] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_minimum_support_prefers_pure(self, pd):
        # a cube holding the stage equilibrium payoff: the defect/defect
        # singleton pattern is found before any mixed pattern
        C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
        cube = C.cube_at((2, 2))

        def builder(pattern):
            return sg.mixed_cluster_system(
                cube, sg.Cluster(cube.origin, (0.5, 0.5)), (0.0, 0.0),
                pd, 0.4, pattern)

        sol = sg.solve_support_program(builder, pd)
        assert sol is not None
        assert sol.pattern.supports == ((1,), (1,))
        assert sol.pattern.cardinality == 2

    def test_exhaustion_count(self, pd):
        calls = []

        def builder(pattern):
            calls.append(pattern)
            sys = sg.LinearSystem()
            sys.add_variable("x", low=1.0, high=2.0)
            sys.add_constraint({"x": 1.0}, "<=", 0.0)
            return sys

        assert sg.solve_support_program(builder, pd) is None
        assert len(calls) == (2 ** 2 - 1) * (2 ** 2 - 1)

    def test_agrees_with_exhaustive_enumeration(self):
        # random stationary-style systems on random games: first-feasible in
        # ascending-cardinality order must match brute force over all
        # patterns taking the minimum cardinality
        rng = np.random.default_rng(404)
        agreements = 0
        for trial in range(50):
            shape = (2, 2) if trial % 2 == 0 else (2, 3)
            game = random_game(rng, shape)
            center = rng.uniform(-2, 2, size=2)
            cube = sg.Hypercube(tuple(center), float(rng.uniform(0.1, 0.8)))
            cluster = sg.Cluster(tuple(center - rng.uniform(0, 0.5, size=2)),
                                 (1.5, 1.5))
            floor = tuple(center - rng.uniform(0.5, 2.0, size=2))
            gamma = float(rng.uniform(0.05, 0.9))

            def builder(pattern):
                return sg.mixed_cluster_system(cube, cluster, floor, game,
                                               gamma, pattern)

            sol = sg.solve_support_program(builder, game)
            feasible = []
            for pattern in enumerate_support_patterns(shape):
                assignment = sg.solve_feasibility(builder(pattern))
                if assignment is not None:
                    feasible.append(pattern)
            if sol is None:
                assert feasible == []
            else:
                assert feasible
                assert sol.pattern.cardinality == min(p.cardinality
                                                      for p in feasible)
                assert sol.pattern == feasible[0]
                agreements += 1
        assert agreements >= 10  # the generator must exercise feasible cases

    def test_solution_satisfies_recursion(self, pd):
        C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
        cube = C.cube_at((2, 2))
        ctx = replace(_build_context(C, hull=False), w_floor=(-1.0, -1.0))
        cert = sg.cube_supported_mixed(cube, C, pd, 0.6, ctx)
        sol = cert.solution
        gamma = 0.6
        for i in range(2):
            for a in sol.alpha.support(i):
                expected = 0.0
                opp = 1 - i
                for b, pb in enumerate(sol.alpha.probs[opp]):
                    prof = (a, b) if i == 0 else (b, a)
                    expected += pb * pd.payoff_to(prof, i)
                wp = (1 - gamma) * expected + gamma * sol.continuation(i, a)
                assert abs(sol.utility(i, a) - wp) <= 1e-7
