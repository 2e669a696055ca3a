import numpy as np
import pytest

import spegrid as sg
from spegrid.cli import (RunManifest, main, read_final_set, run,
                         verify_final_set)
from spegrid.game import conditional_payoff_table
from spegrid.gamefile import resolve_game_path
from spegrid.solver import _conditional_payoffs


class TestGameFormat:
    def test_bundled_prisoners_dilemma(self, pd):
        assert pd.player_count == 2
        assert pd.actions == (("C", "D"), ("C", "D"))
        assert pd.payoff_to((0, 0), 0) == 2.0
        assert pd.payoff_to((0, 1), 0) == -1.0
        assert pd.payoff_to((0, 1), 1) == 3.0
        assert pd.payoff_to((1, 1), 1) == 0.0

    def test_bundled_battle_of_sexes(self, bos):
        assert bos.payoff_to((0, 0), 0) == 1.0
        assert bos.payoff_to((0, 0), 1) == 2.0
        assert bos.payoff_to((1, 1), 0) == 2.0
        assert bos.payoff_to((0, 1), 0) == 0.0

    def test_wrong_row_count_names_the_profile(self):
        doc = """players: 2
actions 1: a b
actions 2: a b
payoffs:
a a 1 1
a b 2 2
b a 3 3
"""
        with pytest.raises(sg.GameFormatError, match="profile index 3"):
            sg.parse_game(doc)

    def test_out_of_order_rows_are_reported(self):
        doc = """players: 2
actions 1: a b
actions 2: a b
payoffs:
a a 1 1
b a 3 3
a b 2 2
b b 4 4
"""
        with pytest.raises(sg.GameFormatError, match="profile index 1"):
            sg.parse_game(doc)

    def test_non_numeric_payoff(self):
        doc = """players: 2
actions 1: a b
actions 2: a b
payoffs:
a a 1 1
a b 2 2
b a 3 x
b b 4 4
"""
        with pytest.raises(sg.GameFormatError, match="non-numeric"):
            sg.parse_game(doc)

    def test_missing_player_block(self):
        doc = """players: 2
actions 1: a b
payoffs:
a a 1 1
"""
        with pytest.raises(sg.GameFormatError, match="player"):
            sg.parse_game(doc)

    def test_round_trip_is_bit_exact(self, rpc):
        rng = np.random.default_rng(8)
        games = [rpc]
        for _ in range(5):
            tensor = rng.uniform(-7, 7, size=(2, 3, 2))
            games.append(sg.StageGame((("x", "y"), ("u", "v", "w")), tensor))
        for game in games:
            again = sg.parse_game(sg.serialize_game(game, name="t"))
            assert again.actions == game.actions
            assert np.array_equal(again.payoffs, game.payoffs)

    def test_bundled_listing(self):
        names = sg.list_bundled()
        for expected in ["prisoners_dilemma", "battle_of_sexes",
                         "rock_paper_scissors", "matching_pennies",
                         "duopoly_abreu"]:
            assert expected in names


class TestRun:
    def test_pd_run_artifacts(self, tmp_path):
        manifest = RunManifest(game="prisoners_dilemma", gamma=0.05,
                               epsilon=0.3, mode="correlated",
                               out_dir=str(tmp_path / "out"), svg=True,
                               extract=((0.0, 0.0),))
        code, report = run(manifest)
        assert code == 0
        assert report.converged
        out = tmp_path / "out"
        assert (out / "manifest.txt").is_file()
        assert (out / "performance.txt").is_file()
        assert (out / "timing.txt").is_file()
        snapshots = sorted((out / "snapshots").iterdir())
        assert len(snapshots) == len(report.iterations)
        perf = (out / "performance.txt").read_text()
        assert "status: converged" in perf
        assert f"iterations: {len(report.iterations)}" in perf
        # final set cubes all near the stage equilibrium payoff
        C, status, certs = read_final_set(out / "final_set.txt")
        assert status == "converged"
        assert len(C) == len(report.final)
        for cube in C:
            assert all(abs(v) <= 2 * C.side for v in cube.origin)
        autos = list((out / "automata").iterdir())
        assert any(p.suffix == ".txt" for p in autos)
        assert any(p.suffix == ".dot" for p in autos)
        svgs = list((out / "svg").iterdir())
        assert (out / "svg" / "final.svg").is_file()
        assert len(svgs) >= 2

    def test_final_set_replays(self, tmp_path, pd):
        manifest = RunManifest(game="prisoners_dilemma", gamma=0.3,
                               epsilon=0.4, mode="mixed",
                               out_dir=str(tmp_path / "o"))
        code, report = run(manifest)
        assert code == 0
        assert verify_final_set(tmp_path / "o" / "final_set.txt", pd, 0.3)

    def test_empty_set_exit_code(self, tmp_path):
        manifest = RunManifest(game="matching_pennies", gamma=0.05,
                               epsilon=0.3, mode="pure",
                               out_dir=str(tmp_path / "empty"))
        code, report = run(manifest)
        assert code == 2
        assert report.status == "empty"

    def test_generation_guard_exit_code(self, tmp_path):
        manifest = RunManifest(game="prisoners_dilemma", gamma=0.6,
                               epsilon=1e-5, mode="correlated",
                               max_generations=2,
                               out_dir=str(tmp_path / "guard"))
        code, report = run(manifest)
        assert code == 3
        assert report.status == "generation_guard"

    def test_identical_manifests_give_identical_artifacts(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            manifest = RunManifest(game="battle_of_sexes", gamma=0.05,
                                   epsilon=0.4, mode="mixed",
                                   out_dir=str(tmp_path / tag), svg=True,
                                   extract=((1.0, 2.0),))
            code, _ = run(manifest)
            assert code == 0
            outs.append(tmp_path / tag)
        files_a = sorted(p.relative_to(outs[0])
                         for p in outs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(outs[1])
                         for p in outs[1].rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "timing.txt":
                continue  # wall time is the one documented exception
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_snapshot_cadence(self, tmp_path):
        manifest = RunManifest(game="prisoners_dilemma", gamma=0.05,
                               epsilon=0.3, mode="correlated",
                               snapshot_every=3,
                               out_dir=str(tmp_path / "every3"))
        code, report = run(manifest)
        assert code == 0
        written = sorted((tmp_path / "every3" / "snapshots").iterdir())
        expected = [i for i in range(1, len(report.iterations) + 1)
                    if i % 3 == 0]
        assert [int(p.stem.split("_")[1]) for p in written] == expected

    def test_epsilon_sweep_iterations_monotone(self, tmp_path):
        # coarse two-point version of the sweep; the acceptance suite runs
        # the full one
        iters = []
        for eps in (0.5, 0.25):
            manifest = RunManifest(game="battle_of_sexes", gamma=0.05,
                                   epsilon=eps, mode="mixed",
                                   out_dir=str(tmp_path / f"eps{eps}"))
            _, report = run(manifest)
            iters.append(len(report.iterations))
        assert iters[0] <= iters[1]


class TestRenderSvg:
    def test_single_cube_covers_plot(self):
        text = sg.render_svg([(0.0, 0.0)], 2.0, sg.PayoffBounds(0.0, 2.0))
        assert text.count("<rect") == 3  # background, cube, frame
        assert 'width="480"' in text

    def test_empty_set_annotated(self):
        text = sg.render_svg([], 1.0, sg.PayoffBounds(0.0, 2.0))
        assert ">empty</text>" in text

    def test_byte_deterministic(self):
        a = sg.render_svg([(0.0, 0.5), (0.5, 0.0)], 0.5,
                          sg.PayoffBounds(-1.0, 3.0), title="t")
        b = sg.render_svg([(0.5, 0.0), (0.0, 0.5)], 0.5,
                          sg.PayoffBounds(-1.0, 3.0), title="t")
        assert a == b

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            sg.render_svg([(0.0, 0.0, 0.0)], 1.0, sg.PayoffBounds(0.0, 1.0))


class TestMain:
    def test_cli_end_to_end(self, tmp_path, capsys):
        code = main(["prisoners_dilemma", "--gamma", "0.05", "--epsilon",
                     "0.3", "--mode", "correlated", "--out",
                     str(tmp_path / "cli"), "--extract", "0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: converged" in out

    def test_cli_verify(self, tmp_path, capsys):
        code = main(["prisoners_dilemma", "--gamma", "0.3", "--epsilon",
                     "0.4", "--out", str(tmp_path / "v")])
        assert code == 0
        code = main(["prisoners_dilemma", "--gamma", "0.3", "--epsilon",
                     "0.4", "--verify", str(tmp_path / "v" / "final_set.txt")])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_cli_bad_game(self, capsys):
        code = main(["no_such_game", "--gamma", "0.3", "--epsilon", "0.4"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exit_status(self, tmp_path, capsys,
                                           monkeypatch):
        def failing(system):
            raise RuntimeError("simplex iteration limit reached")

        monkeypatch.setattr("spegrid.feasibility.solve_feasibility", failing)
        code = main(["rock_paper_scissors", "--gamma", "0.5", "--epsilon",
                     "3.0", "--out", str(tmp_path / "num")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure: ")
        assert "simplex iteration limit reached" in err

    @pytest.mark.parametrize("flag,value", [("--epsilon", "nan"),
                                            ("--epsilon", "inf"),
                                            ("--gamma", "nan"),
                                            ("--gamma", "inf")])
    def test_non_finite_parameters_exit_before_solving(self, tmp_path, capsys,
                                                       monkeypatch, flag,
                                                       value):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr("spegrid.cli.solve", no_solve)
        args = {"--gamma": "0.7", "--epsilon": "0.5", flag: value}
        code = main(["prisoners_dilemma", *sum(args.items(), ()),
                     "--out", str(tmp_path / "bad")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:] in err
        assert not (tmp_path / "bad").exists()

    def test_manifest_validation_is_the_solver_config_check(self):
        manifest = RunManifest(game="prisoners_dilemma", gamma=0.7,
                               epsilon=float("nan"))
        with pytest.raises(ValueError, match="epsilon must be positive"):
            manifest.validate()

    def test_bundled_name_resolution(self):
        path = resolve_game_path("prisoners_dilemma")
        assert path.name == "prisoners_dilemma.game"
        with pytest.raises(FileNotFoundError):
            resolve_game_path("definitely_missing")


# -- tampered final sets -------------------------------------------------------

@pytest.fixture(scope="module", params=["pure", "mixed", "correlated"])
def pd_final_set(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"tamper_{request.param}")
    code, report = run(RunManifest(game="prisoners_dilemma", gamma=0.7,
                                   epsilon=3.2, mode=request.param,
                                   snapshot_every=0, out_dir=str(out)))
    assert code == 0 and len(report.final) == 216
    return out / "final_set.txt"


def _sections(path):
    """Header lines (through ``cubes:``), cube lines, certificate blocks."""
    lines = path.read_text().splitlines()
    start = next(k for k, line in enumerate(lines)
                 if line.startswith("cubes:")) + 1
    stop = lines.index("certificates:")
    blocks = []
    for line in lines[stop + 1:]:
        if line.startswith("cube:"):
            blocks.append([])
        blocks[-1].append(line)
    return lines[:start], lines[start:stop], blocks


def _write_sections(path, header, cubes, blocks):
    lines = header + cubes + ["certificates:"]
    for block in blocks:
        lines.extend(block)
    path.write_text("\n".join(lines) + "\n")


class TestTamperedFinalSet:
    DROP = 37  # any cube of the 216

    def test_untampered_set_verifies(self, pd_final_set, pd):
        assert verify_final_set(pd_final_set, pd, 0.7)

    def test_missing_certificate_fails(self, pd_final_set, pd, tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        del blocks[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        assert not verify_final_set(tmp_path / "f.txt", pd, 0.7)

    def test_cube_count_below_header_fails(self, pd_final_set, pd, tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        assert header[-1] == "cubes: 216"
        del cubes[self.DROP]
        del blocks[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        with pytest.raises(ValueError, match="216"):
            verify_final_set(tmp_path / "f.txt", pd, 0.7)

    def test_certificate_outside_the_set_fails(self, pd_final_set, pd,
                                               tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        header[-1] = "cubes: 215"
        del cubes[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        assert not verify_final_set(tmp_path / "f.txt", pd, 0.7)

    @pytest.mark.parametrize("edit", range(6))
    def test_certificate_that_does_not_fit_the_game_fails(
            self, pd_final_set, tmp_path, capsys, edit):
        # PD has two actions per player; each edit breaks one certificate
        # by an out-of-range action, a row of the wrong length, or (mixed)
        # alpha mass on an action outside the pattern
        header, cubes, blocks = _sections(pd_final_set)
        block = blocks[self.DROP]
        fields = dict(line.split(": ", 1) for line in block)
        if fields["kind"] == "pure":
            tampers = [{"profile": "5 0"}, {"profile": "0 -1"},
                       {"profile": "0"}, {"profile": "0 0 0"},
                       {"continuation": "0.5"},
                       {"continuation": "0.5 0.5 0.5"}]
        else:
            w0, w1 = fields["w"].split(" | ")
            short = w0.split()[0] + " | " + w1
            tampers = [{"pattern": "5 | 0"}, {"pattern": "0 | -1"},
                       {"alpha": "1.0 | 1.0"}, {"w": short}, {"wp": short},
                       {"pattern": "0 | 0", "alpha": "0.0 1.0 | 1.0 0.0"}]
        tamper = tampers[edit]
        blocks[self.DROP] = [
            f"{key}: {tamper[key]}" if key in tamper else line
            for key, line in ((line.split(":")[0], line) for line in block)]
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        assert "verification FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("pd_final_set", ["mixed", "correlated"],
                             indirect=True)
    def test_near_point_mass_alpha_is_replayed_with_its_own_table(
            self, pd_final_set, pd, tmp_path):
        # A size-1 pattern whose alpha puts 5e-10 off the action still fits
        # the game (the mass outside the pattern is below PROB_TOL).  Only an
        # exact point mass may take the game's shared table; this one is
        # replayed with a table computed from its alpha, and verifies as
        # before.
        header, cubes, blocks = _sections(pd_final_set)
        k, block = next((k, b) for k, b in enumerate(blocks)
                        if len(b[2].split()) == 4)  # "pattern: a | b"
        profile = tuple(map(int, block[2][len("pattern: "):].split(" | ")))
        rows = []
        for a in profile:
            row = [5e-10, 5e-10]
            row[a] = 1.0 - 5e-10
            rows.append(" ".join(map(repr, row)))
        exact = tmp_path / "exact.txt"
        _write_sections(exact, header, cubes, blocks)
        blocks[k] = [f"alpha: {' | '.join(rows)}" if line.startswith("alpha:")
                     else line for line in block]
        near = tmp_path / "near.txt"
        _write_sections(near, header, cubes, blocks)
        assert verify_final_set(near, pd, 0.7)

        C, _, certs = read_final_set(near)
        index = C.index_of(map(float, block[0][len("cube: "):].split()))
        shared = pd.tables.conditional[profile]
        assert _conditional_payoffs(read_final_set(exact)[2][index],
                                    pd) is shared
        cert = certs[index]
        table = _conditional_payoffs(cert, pd)
        assert table == conditional_payoff_table(pd, cert.solution.alpha)
        assert table != shared
