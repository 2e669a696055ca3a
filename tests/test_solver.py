from dataclasses import replace

import numpy as np
import pytest

import spegrid as sg
from spegrid.feasibility import enumerate_support_patterns
from spegrid.cli import verify_final_set
from spegrid.solver import (_build_context, _cluster_box, _hull_row,
                            _hull_window, _screen_pattern,
                            _singleton_cluster_solution,
                            _singleton_correlated_solution, _pure_witness,
                            certificate_residual)
from conftest import (pure_support_system, random_game, stage_equilibria,
                      write_report)


class TestCubeSupportedPure:
    def test_stage_equilibrium_cube_survives(self, pd):
        # cube [0, 0.5]^2 holds the defect/defect payoff and supports itself
        C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
        for gamma in (0.0, 0.3, 0.9):
            cert = sg.cube_supported_pure(C.cube_at((2, 2)), C,
                                          C.min_origin(), pd, gamma)
            assert cert is not None
            assert sg.verify_certificate(cert, pd, gamma, C, (2, 2))
            if gamma <= 0.3:
                # low discounting leaves defect/defect as the only witness;
                # at high gamma the lexicographically earlier (C,C) also
                # supports the cube and is returned instead
                assert cert.profile == (1, 1)
        # the stationary witness w = (0, 0) is itself feasible
        cube = C.cube_at((2, 2))
        sys = pure_support_system(cube, sg.Cluster((0.0, 0.0), (0.5, 0.5)),
                                  (0.0, 0.0), pd, 0.3, (1, 1))
        from spegrid.feasibility import w_var, wp_var
        point = {w_var(0, 0): 0.0, w_var(1, 0): 0.0,
                 wp_var(0, 0): 0.0, wp_var(1, 0): 0.0}
        assert sys.residual(point) <= 1e-12

    def test_low_gamma_cooperation_cube_dies(self, pd):
        # interval bound: for a=(C,C) the incentive slack is at most
        # 0.95*2 + 0.05*3 - 0.95*3 - 0.05*(-1) = -0.75 < 0, and no other
        # profile reaches the cube either
        C = sg.CubeSet((-1.0, -1.0), 0.2, [(0, 0), (14, 14)])
        cube = C.cube_at((14, 14))  # [1.8, 2.0]^2
        assert sg.cube_supported_pure(cube, C, C.min_origin(), pd, 0.05) is None

    def test_cooperation_supported_at_high_gamma(self, pd):
        # cube around (2,2) with the punishment floor at (0,0): condition
        # slack for mutual cooperation is 0.3*2 + 0.7*2 - 0.3*3 = 1.1 >= 0
        C = sg.CubeSet((0.0, 0.0), 0.2, [(0, 0), (10, 10)])
        cube = C.cube_at((10, 10))  # [2.0, 2.2]^2
        cert = sg.cube_supported_pure(cube, C, C.min_origin(), pd, 0.7)
        assert cert is not None
        assert cert.profile == (0, 0)
        w = cert.continuation
        wp = tuple(0.3 * 2.0 + 0.7 * wi for wi in w)
        assert all(2.0 - 1e-9 <= x <= 2.2 + 1e-9 for x in wp)

    def test_matches_lp_route_on_random_scenarios(self):
        rng = np.random.default_rng(71)
        for _ in range(120):
            game = random_game(rng, (2, 2))
            C = sg.CubeSet(tuple(rng.uniform(-3, 0, size=2)),
                           float(rng.uniform(0.2, 1.0)),
                           [(0, 0), tuple(rng.integers(0, 4, size=2))])
            gamma = float(rng.uniform(0, 0.95))
            floor = C.min_origin()
            for ix in C.indices():
                cube = C.cube_at(ix)
                for cluster in sg.get_clusters(C):
                    for profile in game.profiles():
                        r_vals, br = game.tables.pure[profile]
                        witness = _pure_witness(cube.origin, cube.side, cluster,
                                                floor, game, gamma, profile,
                                                r_vals, br)
                        lp = sg.solve_feasibility(pure_support_system(
                            cube, cluster, floor, game, gamma, profile))
                        assert (witness is not None) == (lp is not None)


class TestCubeSupportedMixed:
    def test_rock_paper_scissors_uniform_core(self, rpc):
        # one tiny cube at the zero profile: the only support is the
        # stationary uniform mixture
        side = 1e-6
        C = sg.CubeSet((-side / 2, -side / 2), side, [(0, 0)])
        cube = C.cube_at((0, 0))
        cert = sg.cube_supported_mixed(cube, C, C.min_origin(), rpc, 0.5)
        assert cert is not None
        sol = cert.solution
        assert sol.pattern.supports == ((0, 1, 2), (0, 1, 2))
        for i in range(2):
            assert sol.alpha.probs[i] == pytest.approx([1 / 3] * 3, abs=1e-4)
        assert sg.verify_certificate(cert, rpc, 0.5, C, (0, 0))

    def test_pure_supportable_cube_agrees_with_pure_backend(self, pd):
        C = sg.CubeSet((-1.0, -1.0), 0.5, [(2, 2)])
        cube = C.cube_at((2, 2))
        pure = sg.cube_supported_pure(cube, C, C.min_origin(), pd, 0.4)
        mixed = sg.cube_supported_mixed(cube, C, C.min_origin(), pd, 0.4)
        assert mixed is not None
        assert mixed.solution.pattern.pure
        assert tuple(s[0] for s in mixed.solution.pattern.supports) == pure.profile

    def test_off_equilibrium_cube_dies(self, pennies):
        # matching pennies at small gamma: any cube far from (0,0) is
        # unsupportable (the unique equilibrium value is the origin)
        C = sg.CubeSet((-1.0, -1.0), 0.25, [(6, 6), (3, 3)])
        cube = C.cube_at((6, 6))  # [0.5, 0.75]^2
        assert sg.cube_supported_mixed(cube, C, C.min_origin(),
                                       pennies, 0.05) is None

    def test_requires_two_players(self):
        g = sg.StageGame((("a",), ("a",), ("a",)), np.zeros((1, 1, 1, 3)))
        C = sg.CubeSet((0.0, 0.0, 0.0), 1.0, [(0, 0, 0)])
        with pytest.raises(ValueError):
            sg.cube_supported_mixed(C.cube_at((0, 0, 0)), C, (0, 0, 0), g, 0.5)

    def test_singleton_shortcut_matches_lp(self):
        rng = np.random.default_rng(93)
        patterns = [p for p in enumerate_support_patterns([2, 2]) if p.pure]
        for _ in range(150):
            game = random_game(rng, (2, 2))
            origin = tuple(rng.uniform(-2, 2, size=2))
            side = float(rng.uniform(0.1, 1.0))
            cube = sg.Hypercube(origin, side)
            cluster = sg.Cluster(tuple(rng.uniform(-3, 1, size=2)),
                                 tuple(rng.uniform(0.2, 2.0, size=2)))
            floor = tuple(rng.uniform(-3, -1, size=2))
            gamma = float(rng.uniform(0, 0.9))
            for pattern in patterns:
                # a search's verdict: the box screen, then the decider
                fast = _screen_pattern(origin, side, pattern, game, gamma,
                                       floor, _cluster_box(cluster), False) \
                    and _singleton_cluster_solution(
                        origin, side, _cluster_box(cluster), floor, game,
                        gamma, pattern) is not None
                lp = sg.solve_feasibility(sg.mixed_cluster_system(
                    cube, cluster, floor, game, gamma, pattern))
                assert fast == (lp is not None)


class TestCubeSupportedCorrelated:
    def test_stage_equilibrium_always_feasible(self, pd, bos, pennies):
        for game in (pd, bos, pennies):
            for (_, value) in stage_equilibria(game):
                bounds = sg.payoff_bounds(game)
                C = sg.initial_cube(bounds, 2)
                C = sg.split_all(sg.split_all(C))
                cube = sg.locate(value, C)
                assert cube is not None
                cert = sg.cube_supported_correlated(cube, C, game, 0.35)
                assert cert is not None

    def test_bos_average_payoff_supported_by_correlation(self, bos):
        # a cube holding (1.5, 1.5) is supported at gamma=0.45 once the set
        # covers both pure-equilibrium cubes: the continuation pair lies in
        # the hull spanned between them, which no single cluster offers
        C = sg.CubeSet((0.0, 0.0), 0.5, [(1, 3), (3, 1), (2, 2), (0, 0)])
        cube = C.cube_at((2, 2))  # [1.0, 1.5]^2, upper corner (1.5, 1.5)
        assert cube.contains((1.5, 1.5))
        cert = sg.cube_supported_correlated(cube, C, bos, 0.45)
        assert cert is not None
        assert sg.verify_certificate(cert, bos, 0.45, C, (2, 2))
        planes = sg.get_halfplanes(C)
        sol = cert.solution
        for a1 in sol.pattern.supports[0]:
            for a2 in sol.pattern.supports[1]:
                w1, w2 = sol.continuation(0, a1), sol.continuation(1, a2)
                assert all(_hull_row(*p, w1, w2) <= 1e-7 for p in planes)

    def test_gamma_zero_reduces_to_stage_equilibrium(self, pd):
        # with no future, w' = r(alpha): a cube away from every stage
        # equilibrium payoff cannot be supported
        C = sg.CubeSet((-1.0, -1.0), 0.25, [(10, 10)])
        cube = C.cube_at((10, 10))  # [1.5, 1.75]^2
        assert sg.cube_supported_correlated(cube, C, pd, 0.0) is None
        # and the equilibrium cube still is supported
        C2 = sg.CubeSet((-1.0, -1.0), 0.25, [(4, 4)])
        assert sg.cube_supported_correlated(C2.cube_at((4, 4)), C2, pd, 0.0) \
            is not None

    def test_singleton_shortcut_matches_lp(self):
        rng = np.random.default_rng(57)
        patterns = [p for p in enumerate_support_patterns([2, 2]) if p.pure]
        for _ in range(120):
            game = random_game(rng, (2, 2))
            bounds = sg.payoff_bounds(game)
            cells = {tuple(rng.integers(0, 4, size=2))
                     for _ in range(rng.integers(1, 6))}
            C = sg.CubeSet((bounds.low, bounds.low),
                           max(bounds.spread, 0.5) / 4.0, cells)
            planes = tuple(sg.get_halfplanes(C))
            floor = C.min_origin()
            gamma = float(rng.uniform(0, 0.9))
            ix = sorted(cells)[rng.integers(len(cells))]
            cube = C.cube_at(tuple(ix))
            window = _hull_window(_build_context(C, hull=True), bounds)
            for pattern in patterns:
                # a search's verdict: the box screen, then the decider
                fast = _screen_pattern(cube.origin, cube.side, pattern, game,
                                       gamma, floor, window, True) \
                    and _singleton_correlated_solution(
                        cube.origin, cube.side, planes, floor, bounds, game,
                        gamma, pattern) is not None
                lp = sg.solve_feasibility(sg.correlated_support_system(
                    cube, planes, floor, bounds, game, gamma, pattern))
                if fast != (lp is not None):
                    # tolerate only hairline cases on the feasibility boundary
                    sys2 = sg.correlated_support_system(
                        cube, planes, floor, bounds, game, gamma, pattern)
                    assert not fast and lp is not None
                    assert sys2.residual(lp) <= 1e-7


class TestSolverConfig:
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"),
                                         float("-inf"), 0.0, -0.1])
    def test_rejects_epsilon_that_is_not_positive_and_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            sg.SolverConfig(gamma=0.7, epsilon=epsilon)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                       float("-inf"), 1.0, -0.1])
    def test_rejects_gamma_outside_the_unit_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            sg.SolverConfig(gamma=gamma, epsilon=0.5)

    @pytest.mark.parametrize("generations", [-1, 2.5, 3.0, "3", None, True])
    def test_rejects_max_generations_that_is_not_an_int_from_0(self,
                                                               generations):
        with pytest.raises(ValueError, match="max_generations"):
            sg.SolverConfig(gamma=0.5, epsilon=0.5,
                            max_generations=generations)

    @pytest.mark.parametrize("frozen", ["false", 0, None])
    def test_rejects_frozen_passes_that_is_not_a_bool(self, frozen):
        # "false" is a true string, and would have run frozen passes
        with pytest.raises(ValueError, match="frozen_passes"):
            sg.SolverConfig(gamma=0.7, epsilon=1.6, frozen_passes=frozen)

    def test_zero_generations_is_a_valid_guard(self):
        assert sg.SolverConfig(gamma=0.5, epsilon=0.5,
                               max_generations=0).max_generations == 0


class TestCubeCompleted:
    def test_bound_threshold_arithmetic(self, pd):
        cfg = sg.SolverConfig(gamma=0.3, epsilon=0.5, mode="pure",
                              completion="bound")
        C_big = sg.CubeSet((0.0, 0.0), 0.25, [(0, 0)])
        C_small = sg.CubeSet((0.0, 0.0), 0.1, [(0, 0)])
        assert cfg.bound_threshold == pytest.approx(0.175)
        assert not sg.cube_completed(C_big.cube_at((0, 0)), C_big, cfg)
        assert sg.cube_completed(C_small.cube_at((0, 0)), C_small, cfg)

    def test_exact_mode_on_converged_equilibrium(self, pd):
        cfg = sg.SolverConfig(gamma=0.05, epsilon=0.5, mode="mixed-correlated")
        report = sg.solve(pd, cfg)
        assert report.converged
        exact_cfg = sg.SolverConfig(gamma=0.05, epsilon=0.5,
                                    mode="mixed-correlated", completion="exact")
        cube = sg.locate((0.0, 0.0), report.final)
        assert sg.cube_completed(cube, report.final, exact_cfg, pd,
                                 report.certificates)


@pytest.fixture(scope="module")
def pd_correlated(pd):
    return sg.solve(pd, sg.SolverConfig(gamma=0.4, epsilon=0.4,
                                        mode="mixed-correlated"))


class TestSolve:
    def test_pd_low_gamma_collapses_to_origin(self, pd):
        report = sg.solve(pd, sg.SolverConfig(gamma=0.05, epsilon=0.3,
                                              mode="mixed-correlated"))
        assert report.converged
        for cube in report.final:
            assert all(abs(v) <= 0.3 for v in cube.origin)
            assert all(abs(v + cube.side) <= 0.35 for v in cube.origin)

    def test_rpc_pinpoints_origin(self, rpc):
        report = sg.solve(rpc, sg.SolverConfig(gamma=0.7, epsilon=0.4,
                                               mode="mixed-correlated"))
        assert report.converged
        assert len(report.final) > 0
        for cube in report.final:
            assert all(abs(v) <= 0.35 for v in cube.origin)

    def test_bos_three_islands_coarse(self, bos):
        report = sg.solve(bos, sg.SolverConfig(gamma=0.05, epsilon=0.2,
                                               mode="mixed-clusters"))
        assert report.converged
        targets = [(1.0, 2.0), (2.0, 1.0), (2 / 3, 2 / 3)]
        for t in targets:
            assert any(cube.contains(t, tol=cube.side)
                       for cube in report.final)

    def test_empty_result_is_reported(self, pennies):
        report = sg.solve(pennies, sg.SolverConfig(gamma=0.05, epsilon=0.3,
                                                   mode="pure"))
        assert report.status == "empty"
        assert report.empty
        assert len(report.final) == 0

    def test_generation_guard(self, pd):
        report = sg.solve(pd, sg.SolverConfig(gamma=0.7, epsilon=1e-6,
                                              mode="mixed-correlated",
                                              max_generations=3))
        assert report.status == "generation_guard"
        assert report.final.generation == 3

    def test_stage_equilibrium_cube_never_removed(self, pd, bos, pennies):
        # stage-equilibrium persistence at a coarse scale, all three back-ends
        cases = [(pd, "pure"), (pd, "mixed-clusters"), (pd, "mixed-correlated"),
                 (bos, "mixed-clusters"), (pennies, "mixed-correlated")]
        for game, mode in cases:
            eqs = stage_equilibria(game)
            seeds = [value for _, value in eqs]
            if mode == "pure":
                seeds = [value for (p, q), value in eqs
                         if max(p) > 1 - 1e-9 and max(q) > 1 - 1e-9]
            presence = []

            def watch(snap, _seeds=seeds, _presence=presence):
                C = sg.CubeSet(snap.base, snap.side, snap.indices,
                               snap.generation)
                _presence.append(all(sg.locate(s, C) is not None
                                     for s in _seeds))

            report = sg.solve(game, sg.SolverConfig(
                gamma=0.3, epsilon=0.5, mode=mode), snapshot_callback=watch)
            assert report.converged
            assert all(presence)

    def test_union_volume_never_grows(self, pd):
        volumes = []

        def watch(snap):
            C = sg.CubeSet(snap.base, snap.side, snap.indices, snap.generation)
            volumes.append(C.union_volume())

        sg.solve(pd, sg.SolverConfig(gamma=0.3, epsilon=0.3,
                                     mode="mixed-correlated"),
                 snapshot_callback=watch)
        assert all(b <= a + 1e-9 for a, b in zip(volumes, volumes[1:]))

    def test_deterministic_reports(self, bos):
        cfg = sg.SolverConfig(gamma=0.3, epsilon=0.4, mode="mixed-clusters")
        a = sg.solve(bos, cfg)
        b = sg.solve(bos, cfg)
        assert a.trace_key() == b.trace_key()
        assert sorted(a.certificates) == sorted(b.certificates)

    def test_frozen_passes_reach_the_same_final_set(self, pd, bos):
        for game, mode in [(pd, "mixed-correlated"), (bos, "mixed-clusters")]:
            cfg_a = sg.SolverConfig(gamma=0.4, epsilon=0.4, mode=mode)
            cfg_b = sg.SolverConfig(gamma=0.4, epsilon=0.4, mode=mode,
                                    frozen_passes=True)
            a = sg.solve(game, cfg_a)
            b = sg.solve(game, cfg_b)
            assert a.final.indices() == b.final.indices()

    def test_containment_chain_across_modes(self, pd):
        # pure-certified cubes are also mixed-certified, and cluster
        # continuations lie inside the hull, so the final unions nest
        cfgs = [sg.SolverConfig(gamma=0.4, epsilon=0.4, mode=m)
                for m in ("pure", "mixed-clusters", "mixed-correlated")]
        finals = [sg.solve(pd, cfg).final for cfg in cfgs]
        for smaller, larger in zip(finals, finals[1:]):
            assert smaller.side == larger.side
            for ix in smaller.indices():
                assert sg.locate(smaller.cube_at(ix).center, larger) is not None

    def test_termination_generation_bound(self, pd, bos):
        for game, gamma, eps in [(pd, 0.3, 0.4), (bos, 0.5, 0.3)]:
            cfg = sg.SolverConfig(gamma=gamma, epsilon=eps,
                                  mode="mixed-correlated")
            report = sg.solve(game, cfg)
            assert report.converged
            spread = sg.payoff_bounds(game).spread
            worst = int(np.ceil(np.log2(spread * 2.0 /
                                        (eps * (1.0 - gamma)))))
            assert report.final.generation <= worst

    def test_exact_completion_stops_no_later_than_bound(self, pd):
        base = dict(gamma=0.3, epsilon=0.6, mode="mixed-correlated")
        bound_run = sg.solve(pd, sg.SolverConfig(**base))
        exact_run = sg.solve(pd, sg.SolverConfig(completion="exact", **base))
        assert exact_run.converged
        # the exact criterion checks the two conditions directly and may
        # fire at a coarser side than the worst-case bound, never a finer one
        assert exact_run.final.side >= bound_run.final.side
        M = sg.build_full_automaton(exact_run.final, exact_run.certificates, pd)
        u = sg.automaton_value(M, 0.3)
        origins = np.array([st.cube.origin for st in M.states])
        assert np.all(origins - u <= 0.6 + 1e-9)
        for i in range(2):
            dev = sg.deviation_values(M, i, 0.3)
            assert np.all(dev - u[:, i] <= 0.6 + 1e-9)

    def test_certificates_replay_against_final_set(self, pd, pd_correlated):
        report = pd_correlated
        for idx in report.final.indices():
            assert sg.verify_certificate(report.certificates[idx], pd, 0.4,
                                         report.final, idx)

    def test_certificate_of_a_missing_cube_fails(self, pd, pd_correlated):
        # a withdrawn cube's witness mostly still fits the rest of the union
        # at the cube's position, so only the membership check rejects it
        C = pd_correlated.final
        fits = 0
        for idx in C.indices()[::100]:
            cert = pd_correlated.certificates[idx]
            rest = C.copy()
            rest.remove(idx)
            fits += certificate_residual(cert, pd, 0.4, C.origin_of(idx),
                                         C.side, rest.min_origin(),
                                         sg.get_halfplanes(rest)) <= 1e-7
            assert not sg.verify_certificate(cert, pd, 0.4, rest, idx)
        assert fits >= 10

    @pytest.mark.parametrize("mode", ["pure", "mixed-clusters",
                                      "mixed-correlated"])
    def test_non_finite_certificate_fails_verification(self, pd, mode,
                                                       tmp_path):
        # A NaN slips past every residual comparison, so a certificate
        # carrying one must be refused before its replay.
        report = sg.solve(pd, sg.SolverConfig(gamma=0.7, epsilon=3.2,
                                              mode=mode))
        C, certs = report.final, report.certificates
        path = tmp_path / "final_set.txt"
        write_report(report, path)
        assert verify_final_set(path, pd, 0.7)
        ix = C.indices()[37]
        cert = certs[ix]
        nan = float("nan")
        if mode == "pure":
            tampered = [replace(cert, continuation=(nan, nan))]
        else:
            sol = cert.solution
            in_supp = [tuple(nan if a in sol.pattern.supports[i] else w
                             for a, w in enumerate(row))
                       for i, row in enumerate(sol.continuations)]
            # a NaN alpha cannot be built: MixedProfile refuses it
            with pytest.raises(ValueError):
                sg.MixedProfile(tuple(np.full(2, nan) for _ in range(2)))
            tampered = [replace(cert, solution=replace(sol, **change))
                        for change in ({"continuations": tuple(in_supp)},
                                       {"utilities": ((nan,) * 2,) * 2})]
        for bad in tampered:
            write_report(report, path, {**certs, ix: bad})
            assert not verify_final_set(path, pd, 0.7)
