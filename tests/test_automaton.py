import math

import numpy as np
import pytest

import spegrid as sg
from conftest import discounted_average
from spegrid.feasibility import FEAS_TOL
from spegrid.solver import SupportCertificate, _hull_row


def pure_cert(profile, continuation, floor):
    return SupportCertificate(kind="pure", w_floor=floor, profile=profile,
                              continuation=tuple(continuation))


@pytest.fixture()
def grim():
    """Two-cube grim-trigger scenario: cooperate at (2,2), punish at (0,0)."""
    C = sg.CubeSet((-1.0, -1.0), 0.5, [(6, 6), (2, 2)])
    certs = {
        (6, 6): pure_cert((0, 0), (2.0, 2.0), (0.0, 0.0)),
        (2, 2): pure_cert((1, 1), (0.0, 0.0), (0.0, 0.0)),
    }
    return C, certs


@pytest.fixture()
def defection(pd):
    """One state: both defect for ever."""
    C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
    cert = pure_cert((1, 1), (0.0, 0.0), (0.0, 0.0))
    return sg.extract_automaton(C, {(2, 2): cert}, (0.0, 0.0), pd)


# outside [0, 1): each used to spin, return NaN or return a meaningless
# number in some evaluator
BAD_GAMMAS = (math.nan, 1.5, 1.0, -0.1, math.inf, True, "0.5", None)


class TestExtraction:
    def test_single_state_stationary_equilibrium(self, pd):
        C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
        cert = sg.cube_supported_mixed(C.cube_at((2, 2)), C, pd, 0.05)
        M = sg.extract_automaton(C, {(2, 2): cert}, (0.0, 0.0), pd)
        assert len(M) == 1
        assert M.supports(0) == ((1,), (1,))
        for target in M.states[0].transitions.values():
            assert target == 0

    def test_grim_trigger_shape(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        assert len(M) == 2
        on_path = M.states[M.initial]
        assert on_path.transitions[(0, 0)] == M.initial
        punish = M.punishments.states[0]
        assert punish == M.punishments.states[1] != M.initial
        for profile in [(0, 1), (1, 0), (1, 1)]:
            assert on_path.transitions[profile] == punish
        for target in M.states[punish].transitions.values():
            assert target == punish

    def test_state_count_bounded_by_cube_count(self, pd):
        rng = np.random.default_rng(77)
        report = sg.solve(pd, sg.SolverConfig(gamma=0.4, epsilon=0.4,
                                              mode="mixed-correlated"))
        cubes = report.final.cubes()
        for _ in range(10):
            cube = cubes[rng.integers(len(cubes))]
            v = tuple(o + rng.random() * cube.side for o in cube.origin)
            M = sg.extract_automaton(report.final, report.certificates, v, pd)
            assert 1 <= len(M) <= len(report.final)

    def test_rejects_points_outside_the_union(self, pd, grim):
        C, certs = grim
        with pytest.raises(ValueError):
            sg.extract_automaton(C, certs, (9.0, 9.0), pd)

    @pytest.mark.parametrize("target", [(2.0, 2.0, 99.0), (2.0,)])
    def test_rejects_a_target_of_another_dimension(self, pd, grim, target):
        # the parent dropped the extra coordinate and extracted (2.0, 2.0)
        C, certs = grim
        with pytest.raises(ValueError, match="lies outside the union"):
            sg.extract_automaton(C, certs, target, pd)

    def test_an_empty_set_has_no_full_automaton(self, pd):
        with pytest.raises(ValueError,
                           match="an empty cube set has no automaton"):
            sg.build_full_automaton(sg.CubeSet((0.0, 0.0), 1.0, []), {}, pd)


class TestAutomatonValue:
    def test_stationary_defection_is_zero(self, defection):
        M = defection
        for gamma in (0.0, 0.5, 0.95):
            assert sg.automaton_value(M, gamma)[M.initial] == pytest.approx(
                [0.0, 0.0])

    def test_grim_on_path_value(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        for gamma in (0.2, 0.7):
            assert sg.automaton_value(M, gamma)[M.initial] == pytest.approx(
                [2.0, 2.0])

    def test_two_cycle_matches_discounted_average(self, pd):
        # states alternating between (D,C) and (C,D) payoffs (3,-1)/(-1,3)
        from spegrid.automaton import Automaton, AutomatonState, PunishmentProfile

        cube = sg.Hypercube((0.0, 0.0), 1.0)
        all_prof = [(a, b) for a in range(2) for b in range(2)]
        s0 = AutomatonState(cube, sg.MixedProfile.point_mass(pd, (1, 0)),
                            {p: 1 for p in all_prof})
        s1 = AutomatonState(cube, sg.MixedProfile.point_mass(pd, (0, 1)),
                            {p: 0 for p in all_prof})
        M = Automaton(pd, (s0, s1), 0, PunishmentProfile((0, 0), (0.0, 0.0)))
        value = sg.automaton_value(M, 0.5)[0]
        assert value[0] == pytest.approx(
            discounted_average([], [3.0, -1.0], 0.5))
        assert value[1] == pytest.approx(
            discounted_average([], [-1.0, 3.0], 0.5))
        assert value[0] == pytest.approx(5 / 3)

    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    def test_rejects_a_discount_factor_outside_the_rule(self, defection,
                                                         gamma):
        with pytest.raises(ValueError, match="gamma"):
            sg.automaton_value(defection, gamma)


class TestBestDeviation:
    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    def test_rejects_a_discount_factor_outside_the_rule(self, defection,
                                                         gamma):
        with pytest.raises(ValueError, match="gamma"):
            sg.deviation_values(defection, 0, gamma)
        with pytest.raises(ValueError, match="gamma"):
            sg.best_deviation(defection, 1, gamma)

    @pytest.mark.parametrize("player", [-2, -1, 2, 3, True, False, 1.0, "1"])
    def test_rejects_a_player_outside_the_game(self, defection, player):
        # a negative index used to return another player's values
        with pytest.raises(ValueError, match="player"):
            sg.deviation_values(defection, player, 0.5)
        with pytest.raises(ValueError, match="player"):
            sg.best_deviation(defection, player, 0.5)

    def test_grim_equilibrium_at_high_gamma(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        value = sg.automaton_value(M, 0.7)[M.initial]
        for i in range(2):
            dev = sg.best_deviation(M, i, 0.7)
            assert dev == pytest.approx(2.0, abs=1e-6)
            assert dev - value[i] <= 1e-6

    def test_grim_breaks_at_low_gamma(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        dev = sg.best_deviation(M, 0, 0.2)
        assert dev == pytest.approx(2.4, abs=1e-6)
        assert dev - sg.automaton_value(M, 0.2)[M.initial][0] == pytest.approx(
            0.4, abs=1e-6)

    def test_stage_equilibrium_has_no_gain(self, pd, rpc):
        for game, profile_or_mix in [(pd, (1, 1)), (rpc, None)]:
            C = sg.initial_cube(sg.payoff_bounds(game), 2)
            C = sg.split_all(C)
            if profile_or_mix is not None:
                target = tuple(game.payoff_to(profile_or_mix, i)
                               for i in range(2))
            else:
                target = (0.0, 0.0)
            cube = sg.locate(target, C)
            ix = tuple(round((o - b) / C.side)
                       for o, b in zip(cube.origin, C.base))
            cert = sg.cube_supported_mixed(cube, C, game, 0.6)
            M = sg.extract_automaton(C, {ix: cert}, target, game) \
                if len({ix}) == 1 else None
            # restrict to the single-cube automaton by reusing the cert only
            C1 = sg.CubeSet(C.base, C.side, [ix])
            cert1 = sg.cube_supported_mixed(C1.cube_at(ix), C1, game, 0.6)
            M = sg.extract_automaton(C1, {ix: cert1}, target, game)
            value = sg.automaton_value(M, 0.6)[M.initial]
            for i in range(2):
                gain = sg.best_deviation(M, i, 0.6) - value[i]
                assert gain <= C1.side / (1 - 0.6) * 2 + 1e-6


class TestDecompose:
    def test_hull_vertex_is_its_own_lottery(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 1)])
        lot = sg.decompose_into_vertices((2.0, 2.0), C)
        assert lot == [(1.0, (2.0, 2.0))]

    def test_midpoint_of_an_edge(self, bos):
        # cubes whose corners include (1,2) and (2,1); the midpoint of that
        # hull edge decomposes into an even lottery over its endpoints
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 1), (1, 0)])
        lot = sg.decompose_into_vertices((1.5, 1.5), C)
        assert sorted(w for w, _ in lot) == pytest.approx([0.5, 0.5])
        assert sorted(v for _, v in lot) == [(1.0, 2.0), (2.0, 1.0)]

    def test_interior_barycentric_reconstruction(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            cells = {tuple(rng.integers(0, 5, size=2))
                     for _ in range(rng.integers(2, 10))}
            C = sg.CubeSet((-1.0, -1.0), 0.5, cells)
            verts = sg.hull_vertices(C)
            weights = rng.dirichlet(np.ones(len(verts)))
            point = tuple(float(sum(w * v[d] for w, v in zip(weights, verts)))
                          for d in range(2))
            lot = sg.decompose_into_vertices(point, C)
            assert len(lot) <= 3
            assert sum(w for w, _ in lot) == pytest.approx(1.0, abs=1e-9)
            rebuilt = [sum(w * v[d] for w, v in lot) for d in range(2)]
            assert rebuilt == pytest.approx(point, abs=1e-9)
            for w, v in lot:
                assert w >= 0
                assert sg.locate(v, C, tol=1e-9) is not None

    def test_outside_point_rejected(self):
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0)])
        with pytest.raises(ValueError):
            sg.decompose_into_vertices((5.0, 5.0), C)

    def test_a_point_that_replays_decomposes(self):
        # (1.5, 0.5) on the hull edge x - y = 1, moved 5e-8 outward: its
        # hull row is within FEAS_TOL, so a certificate's continuation may
        # sit there, and extraction must find it a lottery
        C = sg.CubeSet((0.0, 0.0), 1.0, [(0, 0), (1, 1)])
        step = 5e-8 / math.sqrt(2.0)
        point = (1.5 + step, 0.5 - step)
        worst = max(_hull_row(*p, *point) for p in sg.get_halfplanes(C))
        assert 4e-8 < worst <= FEAS_TOL
        lot = sg.decompose_into_vertices(point, C)
        assert sorted(v for _, v in lot) == [(1.0, 0.0), (2.0, 1.0)]
        assert [w for w, _ in lot] == pytest.approx([0.5, 0.5])

    def test_refuses_exactly_the_points_outside_some_hull_row(self):
        # points on a hull edge, pushed along its normal by up to twice
        # FEAS_TOL either way: extraction refuses a point if and only if
        # some hull row exceeds FEAS_TOL, and gives any other a lottery
        rng = np.random.default_rng(44)
        refused = 0
        for _ in range(200):
            cells = {tuple(rng.integers(0, 5, size=2))
                     for _ in range(rng.integers(1, 8))}
            C = sg.CubeSet((-1.0, -1.0), 0.5, cells)
            verts = sg.hull_vertices(C)
            planes = sg.get_halfplanes(C)
            k = int(rng.integers(len(verts)))
            (x0, y0), (x1, y1) = verts[k], verts[(k + 1) % len(verts)]
            t = rng.uniform(0.05, 0.95)
            x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
            edge = min(planes, key=lambda p: abs(_hull_row(*p, x, y)))
            d = rng.uniform(-2.0, 2.0) * FEAS_TOL
            point = (x + d * edge.phi, y + d * edge.psi)
            if max(_hull_row(*p, *point) for p in planes) > FEAS_TOL:
                refused += 1
                with pytest.raises(ValueError, match="outside"):
                    sg.decompose_into_vertices(point, C)
                continue
            lot = sg.decompose_into_vertices(point, C)
            assert all(w >= 0.0 and v in verts for w, v in lot)
            assert sum(w for w, _ in lot) == pytest.approx(1.0, abs=1e-12)
            rebuilt = [sum(w * v[dim] for w, v in lot) for dim in range(2)]
            assert rebuilt == pytest.approx(point, abs=1e-6)
        assert 40 <= refused <= 160


class TestSimulate:
    # with no episodes the episode loop never starts, so a simulator
    # without the rule returns instead of looping for ever at gamma = 1
    @pytest.mark.parametrize("gamma", BAD_GAMMAS)
    def test_rejects_a_discount_factor_outside_the_rule(self, defection,
                                                         gamma):
        with pytest.raises(ValueError, match="gamma"):
            sg.simulate(defection, gamma, seed=1, episodes=0)

    @pytest.mark.parametrize("episodes", [0, -1, True, 2.5, "3"])
    def test_rejects_fewer_than_one_episode(self, defection, episodes):
        with pytest.raises(ValueError, match="episodes"):
            sg.simulate(defection, 0.5, seed=1, episodes=episodes)

    def test_stationary_defection_is_exact(self, defection):
        result = sg.simulate(defection, 0.6, seed=123, episodes=500)
        assert result.mean == pytest.approx([0.0, 0.0])

    def test_grim_matches_value_within_three_stderr(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        result = sg.simulate(M, 0.7, seed=42, episodes=100000)
        value = sg.automaton_value(M, 0.7)[M.initial]
        for i in range(2):
            assert abs(result.mean[i] - value[i]) <= 3 * result.stderr[i]

    def test_same_seed_reproduces(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        a = sg.simulate(M, 0.5, seed=9, episodes=2000)
        b = sg.simulate(M, 0.5, seed=9, episodes=2000)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_lottery_transitions_average_out(self, bos):
        # force a correlated certificate whose continuation needs a lottery:
        # two distant cubes and a supported cube whose continuation pair
        # falls between them
        C = sg.CubeSet((0.0, 0.0), 0.5, [(1, 3), (3, 1), (2, 2), (0, 0)])
        certs = {}
        for ix in C.indices():
            cert = sg.cube_supported_correlated(C.cube_at(ix), C, bos, 0.45)
            assert cert is not None
            certs[ix] = cert
        M = sg.extract_automaton(C, certs, (1.4, 1.4), bos)
        value = sg.automaton_value(M, 0.45)[M.initial]
        result = sg.simulate(M, 0.45, seed=11, episodes=60000)
        for i in range(2):
            assert abs(result.mean[i] - value[i]) <= 4 * result.stderr[i] + 1e-9


class TestSerialization:
    def test_text_and_dot_are_deterministic(self, pd, grim):
        C, certs = grim
        M = sg.extract_automaton(C, certs, (2.0, 2.0), pd)
        assert M.to_text() == sg.extract_automaton(C, certs, (2.0, 2.0),
                                                   pd).to_text()
        text = M.to_text()
        assert "states: 2" in text
        assert "play 1: C:1.0" in text
        dot = M.to_dot()
        assert dot.startswith("digraph automaton {")
        assert "q0" in dot and "q1" in dot
