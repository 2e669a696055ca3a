import importlib.util
from pathlib import Path

import numpy as np
import pytest

import spegrid as sg
from conftest import (best_response, discounted_average, expected_payoff,
                      grid_minmax, random_game, stage_equilibria)


def _demo_minmax():
    # minmax lives with its only user, the duopoly demo
    path = Path(__file__).parents[1] / "demos" / "duopoly_pure_strategies.py"
    spec = importlib.util.spec_from_file_location("duopoly_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo.minmax


minmax = _demo_minmax()


def mix(*vecs):
    return sg.MixedProfile(tuple(np.array(v, dtype=float) for v in vecs))


class TestPayoffBounds:
    def test_prisoners_dilemma(self, pd):
        assert sg.payoff_bounds(pd) == sg.PayoffBounds(-1.0, 3.0)

    def test_constant_game(self):
        g = sg.StageGame((("a", "b"), ("a", "b")), np.full((2, 2, 2), 5.0))
        assert sg.payoff_bounds(g) == sg.PayoffBounds(5.0, 5.0)

    def test_battle_of_sexes(self, bos):
        # the reconstructed matrix must reproduce the known equilibria
        # before its bounds are trusted anywhere else
        eqs = stage_equilibria(bos)
        values = sorted(tuple(round(v, 6) for v in val) for _, val in eqs)
        assert values == [(0.666667, 0.666667), (1.0, 2.0), (2.0, 1.0)]
        assert sg.payoff_bounds(bos) == sg.PayoffBounds(0.0, 2.0)


class TestExpectedPayoff:
    def test_pure_cooperation(self, pd):
        assert expected_payoff(pd, mix([1, 0], [1, 0]), 0) == 2.0

    def test_fixed_action_vs_uniform(self, pd):
        # r_1(D | uniform opponent) = (3 + 0) / 2
        m = mix([1, 0], [0.5, 0.5])
        assert expected_payoff(pd, m, 0, fixed_action=1) == pytest.approx(1.5)

    def test_point_mass_recovers_pure_payoff(self, rpc):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = (rng.integers(3), rng.integers(3))
            m = sg.MixedProfile.point_mass(rpc, a)
            for i in range(2):
                assert expected_payoff(rpc, m, i) == pytest.approx(
                    rpc.payoff_to(a, i))

    def test_player_out_of_range(self, pd):
        with pytest.raises(IndexError):
            expected_payoff(pd, mix([1, 0], [1, 0]), 2)


class TestBestResponse:
    def test_vs_cooperate(self, pd):
        assert best_response(pd, 0, mix([1, 0], [1, 0])) == (1, 3.0)

    def test_vs_defect(self, pd):
        action, value = best_response(pd, 0, mix([1, 0], [0, 1]))
        assert action == 1 and value == pytest.approx(0.0)

    def test_indifference_breaks_to_lowest_index(self, bos):
        action, value = best_response(bos, 0, mix([1, 0], [2 / 3, 1 / 3]))
        assert action == 0
        assert value == pytest.approx(2 / 3)

    def test_dominates_every_pure_action(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_game(rng, (rng.integers(2, 4), rng.integers(2, 4)))
            q = rng.dirichlet(np.ones(g.action_count(1)))
            m = sg.MixedProfile((np.ones(g.action_count(0)) / g.action_count(0), q))
            _, value = best_response(g, 0, m)
            for a in range(g.action_count(0)):
                assert value >= expected_payoff(g, m, 0, fixed_action=a) - 1e-9


class TestMinmax:
    def test_prisoners_dilemma(self, pd):
        for i in range(2):
            assert minmax(pd, i) == pytest.approx(0.0, abs=1e-9)
            assert grid_minmax(pd, i) == pytest.approx(0.0, abs=1e-3)

    def test_rock_paper_scissors_symmetric_zero_sum(self, rpc):
        for i in range(2):
            assert minmax(rpc, i) == pytest.approx(0.0, abs=1e-9)

    def test_battle_of_sexes(self, bos):
        for i in range(2):
            assert minmax(bos, i) == pytest.approx(2 / 3, abs=1e-9)
            assert grid_minmax(bos, i) == pytest.approx(2 / 3, abs=1e-3)

    def test_lp_matches_grid_on_random_games(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_game(rng, (2, 2))
            for i in range(2):
                assert minmax(g, i) == pytest.approx(grid_minmax(g, i),
                                                        abs=2e-3)

    def test_never_exceeds_best_response(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = random_game(rng, (3, 2))
            i = int(rng.integers(2))
            vm = minmax(g, i)
            opp = 1 - i
            q = rng.dirichlet(np.ones(g.action_count(opp)))
            probs = [None, None]
            probs[i] = np.ones(g.action_count(i)) / g.action_count(i)
            probs[opp] = q
            _, value = best_response(g, i, sg.MixedProfile(tuple(probs)))
            assert vm <= value + 1e-9


class TestDiscountedAverage:
    def test_constant_stream(self):
        for g in (0.0, 0.3, 0.99):
            assert discounted_average([], [2.0], g) == pytest.approx(2.0)

    def test_prefix_then_zero(self):
        assert discounted_average([3.0], [0.0], 0.7) == pytest.approx(0.9)

    def test_alternating_cycle(self):
        value = discounted_average([], [3.0, -1.0], 0.5)
        assert value == pytest.approx(5 / 3)
        truncated = 0.5 * sum(0.5 ** t * ([3.0, -1.0][t % 2]) for t in range(200))
        assert value == pytest.approx(truncated, abs=1e-9)

    def test_closed_form_matches_truncation(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            gamma = rng.uniform(0.0, 0.99)
            prefix = list(rng.uniform(-5, 5, size=rng.integers(0, 4)))
            cycle = list(rng.uniform(-5, 5, size=rng.integers(1, 5)))
            value = discounted_average(prefix, cycle, gamma)
            stream = prefix + [cycle[t % len(cycle)]
                               for t in range(1000 - len(prefix))]
            trunc = (1 - gamma) * sum(gamma ** t * v for t, v in enumerate(stream))
            tail = gamma ** 1000 * max(abs(v) for v in stream)
            assert abs(value - trunc) <= 1e-9 + tail
            assert min(stream) - 1e-9 <= value <= max(stream) + 1e-9

    def test_game_streams_stay_inside_payoff_bounds(self, pd):
        rng = np.random.default_rng(29)
        bounds = sg.payoff_bounds(pd)
        profiles = list(pd.profiles())
        for _ in range(30):
            gamma = rng.uniform(0, 0.99)
            cycle = [pd.payoff_to(profiles[rng.integers(4)], 0)
                     for _ in range(rng.integers(1, 6))]
            v = discounted_average([], cycle, gamma)
            assert bounds.low - 1e-9 <= v <= bounds.high + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            discounted_average([], [1.0], 1.0)
        with pytest.raises(ValueError):
            discounted_average([], [1.0], -0.1)
        with pytest.raises(ValueError):
            discounted_average([1.0], [], 0.5)


class TestValidation:
    def test_payoff_shape_mismatch(self):
        with pytest.raises(ValueError):
            sg.StageGame((("a", "b"), ("a",)), np.zeros((2, 2, 2)))

    def test_non_finite_payoffs(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            sg.StageGame((("a", "b"), ("a", "b")), t)

    def test_mixed_profile_must_sum_to_one(self):
        with pytest.raises(ValueError):
            sg.MixedProfile((np.array([0.5, 0.4]),))

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 1.0],
                                     [np.inf, 0.0], [-np.inf, 1.0]])
    def test_mixed_profile_rejects_non_finite(self, bad):
        # NaN entries sum to NaN and compare False with everything, so
        # without the check this constructed with an empty support
        with pytest.raises(ValueError, match="finite"):
            sg.MixedProfile((np.array(bad), np.array([1.0, 0.0])))

    def test_support_tolerance(self):
        m = sg.MixedProfile((np.array([1.0 - 1e-12, 1e-12]),
                             np.array([0.5, 0.5])))
        assert m.support(0) == (0,)
        assert m.support(1) == (0, 1)
