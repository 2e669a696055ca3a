import re
from dataclasses import replace

import numpy as np
import pytest

import spegrid as sg
from spegrid import cli
from spegrid.cli import (RunManifest, _certificate_text, main,
                         read_final_set, run, verify_final_set)
from spegrid.feasibility import SupportPattern
from spegrid.game import conditional_payoff_table
from spegrid.gamefile import resolve_game_path
from spegrid.solver import (_build_context, _conditional_payoffs,
                            certificate_residual)
from conftest import write_report


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

    @pytest.mark.parametrize("args", [
        ["--epsilon", "0.4"],
        ["--gamma", "0.3", "--epsilon", "0.4", "--mode", "foo"],
        ["--gamma", "x", "--epsilon", "0.4"]],
        ids=["missing_gamma", "unknown_mode", "non_numeric_gamma"])
    def test_a_usage_error_exits_1(self, capsys, args):
        # 2 is the status of an emptied set, so argparse's own 2 is not kept
        assert main(["prisoners_dilemma", *args]) == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "--verify" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["verify_a_directory",
                                      "out_an_existing_file"])
    def test_an_unusable_path_is_an_input_error(self, tmp_path, capsys,
                                                 path):
        # reading a directory or making a directory over a file raises an
        # OSError other than FileNotFoundError
        args = ["prisoners_dilemma", "--gamma", "0.7", "--epsilon", "3.2"]
        if path == "verify_a_directory":
            args += ["--verify", str(tmp_path)]
        else:
            (tmp_path / "taken").write_text("")
            args += ["--out", str(tmp_path / "taken")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_negative_max_generations_exits_before_solving(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr("spegrid.cli.solve", no_solve)
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "0.5", "--max-generations", "-3",
                     "--out", str(tmp_path / "bad")])
        assert code == 1
        assert "max_generations" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

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

    @pytest.mark.parametrize("target", ["inf,0", "nan,0", "0,-inf"])
    def test_non_finite_extract_targets_exit_before_solving(
            self, tmp_path, capsys, monkeypatch, target):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr("spegrid.cli.solve", no_solve)
        code = main(["prisoners_dilemma", "--gamma", "0.5", "--epsilon", "2",
                     "--extract", target, "--out", str(tmp_path / "bad")])
        assert code == 1
        assert capsys.readouterr().err \
            == "error: extract targets must be finite\n"
        assert not (tmp_path / "bad").exists()
        with pytest.raises(ValueError, match="extract targets"):
            RunManifest(game="prisoners_dilemma", gamma=0.5, epsilon=2.0,
                        extract=((0.0, 0.0), (float("nan"), 0.0))).validate()

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


def _outcome(path, game, gamma=0.7):
    """What ``verify_final_set`` makes of a file: True, False or the type of
    the error it raises."""
    try:
        return verify_final_set(path, game, gamma)
    except (ValueError, KeyError) as exc:
        return type(exc)


def _misfit(block, edit):
    """A certificate block with one of 7 edits that break its fit to PD (two
    actions per player): an out-of-range action, a row of the wrong length,
    (mixed) alpha mass on an action outside the pattern, or NaN
    continuations."""
    fields = dict(line.split(": ", 1) for line in block)
    if fields["kind"] == "pure":
        tampers = [{"profile": "5 0"}, {"profile": "0 -1"},
                   {"profile": "0"}, {"profile": "0 0 0"},
                   {"continuation": "0.5"},
                   {"continuation": "0.5 0.5 0.5"},
                   {"continuation": "nan nan"}]
    else:
        w0, w1 = fields["w"].split(" | ")
        short = w0.split()[0] + " | " + w1
        tampers = [{"pattern": "5 | 0"}, {"pattern": "0 | -1"},
                   {"alpha": "1.0 | 1.0"}, {"w": short}, {"wp": short},
                   {"pattern": "0 | 0", "alpha": "0.0 1.0 | 1.0 0.0"},
                   {"w": "nan nan | nan nan"}]
    tamper = tampers[edit]
    return [f"{key}: {tamper[key]}" if key in tamper else line
            for key, line in ((line.split(":")[0], line) for line in block)]


class TestTamperedFinalSet:
    DROP = 37  # any cube of the 216

    def test_untampered_set_verifies(self, pd_final_set, pd):
        assert verify_final_set(pd_final_set, pd, 0.7)
        assert _outcome(pd_final_set, pd) is True

    def test_missing_certificate_fails(self, pd_final_set, pd, tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        del blocks[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        assert not verify_final_set(tmp_path / "f.txt", pd, 0.7)
        assert _outcome(tmp_path / "f.txt", pd) is False

    def test_cube_count_below_header_fails(self, pd_final_set, pd, tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        assert header[-1] == "cubes: 216"
        del cubes[self.DROP]
        del blocks[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        with pytest.raises(ValueError, match="216"):
            verify_final_set(tmp_path / "f.txt", pd, 0.7)
        assert _outcome(tmp_path / "f.txt", pd) is ValueError

    def test_repeated_cube_line_fails(self, pd_final_set, pd, tmp_path):
        # 217 lines match the raised header, but they name 216 cubes
        header, cubes, blocks = _sections(pd_final_set)
        header[-1] = "cubes: 217"
        cubes.insert(self.DROP, cubes[self.DROP])
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        with pytest.raises(ValueError, match="217"):
            verify_final_set(tmp_path / "f.txt", pd, 0.7)
        assert _outcome(tmp_path / "f.txt", pd) is ValueError

    @pytest.mark.parametrize("valid_copy", [False, True])
    def test_repeated_certificate_block_fails(self, pd_final_set, pd,
                                              tmp_path, valid_copy):
        # a second block for one cube, before its own: an exact copy, or a
        # copy whose continuations cannot replay
        header, cubes, blocks = _sections(pd_final_set)
        copy = list(blocks[5])
        if not valid_copy:
            copy = [("continuation: 100.0 100.0" if line.startswith(
                "continuation:") else "w: 100.0 100.0 | 100.0 100.0"
                if line.startswith("w:") else line) for line in copy]
            assert copy != blocks[5]
        blocks.insert(5, copy)
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        assert not verify_final_set(tmp_path / "f.txt", pd, 0.7)
        assert _outcome(tmp_path / "f.txt", pd) is False

    def test_certificate_outside_the_set_fails(self, pd_final_set, pd,
                                               tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        header[-1] = "cubes: 215"
        del cubes[self.DROP]
        _write_sections(tmp_path / "f.txt", header, cubes, blocks)
        assert not verify_final_set(tmp_path / "f.txt", pd, 0.7)
        assert _outcome(tmp_path / "f.txt", pd) is False

    def test_off_lattice_cube_fails(self, pd_final_set, pd, tmp_path,
                                    capsys):
        # one cube moved by 0.3 side, in its cube line and in its block's
        # cube: line; rounding it back onto the lattice would verify the
        # cube it left
        header, cubes, blocks = _sections(pd_final_set)
        side = float(next(line for line in header
                          if line.startswith("side:")).split()[1])
        assert blocks[self.DROP][0] == f"cube: {cubes[self.DROP]}"
        x, y = map(float, cubes[self.DROP].split())
        cubes[self.DROP] = f"{x + 0.3 * side!r} {y!r}"
        blocks[self.DROP][0] = f"cube: {cubes[self.DROP]}"
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        with pytest.raises(ValueError, match="not a lattice point"):
            verify_final_set(path, pd, 0.7)
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("pd_final_set", ["pure"], indirect=True)
    @pytest.mark.parametrize("field,value", [("side", "nan"), ("side", "inf"),
                                             ("base", "nan 0.0")])
    def test_a_non_finite_lattice_fails(self, pd_final_set, pd, tmp_path,
                                        capsys, field, value):
        # an empty set on a NaN lattice holds no certificate to fail, so it
        # must be refused when the set is built
        header, _, _ = _sections(pd_final_set)
        header = [f"{field}: {value}" if line.startswith(f"{field}:")
                  else "cubes: 0" if line.startswith("cubes:") else line
                  for line in header]
        path = tmp_path / "f.txt"
        _write_sections(path, header, [], [])
        assert _outcome(path, pd) is ValueError
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "verified" not in captured.out

    @pytest.mark.parametrize("gamma", ["nan", "1.5", "1.0", "-0.1", "inf"])
    def test_verify_refuses_a_discount_factor_outside_its_range(
            self, pd_final_set, pd, capsys, gamma):
        # NaN utility rows are skipped by every max, so a NaN gamma would
        # accept any set; the rule is SolverConfig's
        code = main(["prisoners_dilemma", "--gamma", gamma, "--epsilon",
                     "3.2", "--verify", str(pd_final_set)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: gamma must lie in [0, 1)\n"
        assert "verified" not in captured.out
        C, _, certs = read_final_set(pd_final_set)
        ix = C.indices()[self.DROP]
        with pytest.raises(ValueError, match="gamma"):
            sg.verify_certificate(certs[ix], pd, float(gamma), C, ix)

    def test_read_final_set_keeps_what_verify_refuses(self, pd_final_set,
                                                       tmp_path):
        # the reader builds what the file says, unchecked, except that a
        # cube whose certificate block repeats gets none
        header, cubes, blocks = _sections(pd_final_set)
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, [blocks[5]] + blocks)
        C, status, certs = read_final_set(path)
        assert status == "converged" and len(C) == 216
        assert sorted(certs) == C.indices()[:5] + C.indices()[6:]
        for edit in range(7):
            misfit = _misfit(blocks[self.DROP], edit)
            _write_sections(path, header, cubes, blocks[:self.DROP]
                            + [misfit] + blocks[self.DROP + 1:])
            C, _, certs = read_final_set(path)
            assert sorted(certs) == C.indices()
            ix = C.indices()[self.DROP]
            assert _certificate_text(C.origin_of(ix), certs[ix]) == misfit

    @pytest.mark.parametrize("pd_final_set,field", [
        ("pure", "base"), ("pure", "side"), ("pure", "cubes"),
        ("pure", "certificates"), ("pure", "kind"),
        ("mixed", "pattern"), ("mixed", "alpha"), ("mixed", "w"),
        ("mixed", "wp"), ("pure", "profile"), ("pure", "continuation")],
        indirect=["pd_final_set"])
    def test_a_missing_line_names_itself(self, pd_final_set, pd, tmp_path,
                                         capsys, field):
        header, cubes, blocks = _sections(pd_final_set)
        if field in ("base", "side", "cubes", "certificates"):
            header = [line for line in header
                      if not line.startswith(f"{field}:")]
            message = f"final set has no '{field}:' line"
        else:
            block = blocks[self.DROP]
            blocks[self.DROP] = [line for line in block
                                 if not line.startswith(f"{field}:")]
            assert len(blocks[self.DROP]) == len(block) - 1
            message = (f"the certificate block of cube "
                       f"{cubes[self.DROP]} has no '{field}:' line")
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        if field == "certificates":
            path.write_text(path.read_text().replace("certificates:\n", ""))
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_final_set(path, pd, 0.7)
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("pd_final_set", ["mixed", "correlated"],
                             indirect=True)
    @pytest.mark.parametrize("row,why", [
        ("0.7 0.7", "probabilities sum to 1.4"),
        ("1.5 -0.5", "negative probability"),
        ("nan 1.0", "probabilities must be finite")])
    def test_an_alpha_row_that_is_no_distribution_is_an_error(
            self, pd_final_set, pd, tmp_path, capsys, row, why):
        header, cubes, blocks = _sections(pd_final_set)
        blocks[self.DROP] = [
            f"alpha: {row} | {line.split(' | ')[1]}"
            if line.startswith("alpha:") else line
            for line in blocks[self.DROP]]
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        with pytest.raises(ValueError) as err:
            verify_final_set(path, pd, 0.7)
        assert str(err.value) == f"player 0: {why}"
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: player 0: {why}\n"

    def test_an_unknown_kind_fails(self, pd_final_set, pd, tmp_path):
        header, cubes, blocks = _sections(pd_final_set)
        blocks[self.DROP] = ["kind: bogus" if line.startswith("kind:")
                             else line for line in blocks[self.DROP]]
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        assert _outcome(path, pd) is False

    @pytest.mark.parametrize("edit", range(7))
    def test_certificate_that_does_not_fit_the_game_fails(
            self, pd_final_set, pd, tmp_path, capsys, edit):
        header, cubes, blocks = _sections(pd_final_set)
        blocks[self.DROP] = _misfit(blocks[self.DROP], edit)
        path = tmp_path / "f.txt"
        _write_sections(path, header, cubes, blocks)
        code = main(["prisoners_dilemma", "--gamma", "0.7", "--epsilon",
                     "3.2", "--verify", str(path)])
        assert code == 1
        assert "verification FAILED" in capsys.readouterr().out
        assert _outcome(path, pd) is False

    @pytest.mark.parametrize("pd_final_set", ["mixed", "correlated"],
                             indirect=True)
    def test_near_point_mass_alpha_is_replayed_with_its_own_table(
            self, pd_final_set, pd, tmp_path):
        # A size-1 pattern whose alpha puts 5e-10 off the action still fits
        # the game (the mass outside the pattern is below PROB_TOL).  Every
        # certificate read from a file is replayed with a table computed
        # from its alpha: an exact point mass gets the bits of the game's
        # shared table, this one its own, and it verifies as before.
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
        assert _outcome(near, pd) is True

        C, _, certs = read_final_set(near)
        index = C.index_of(map(float, block[0][len("cube: "):].split()))
        shared = pd.tables.conditional[profile]
        assert np.array(_conditional_payoffs(read_final_set(exact)[2][index],
                                             pd)).tobytes() \
            == np.array(shared).tobytes()
        cert = certs[index]
        table = _conditional_payoffs(cert, pd)
        assert table == conditional_payoff_table(pd, cert.solution.alpha)
        assert table != shared


# -- one certificate against its final set ---------------------------------------

@pytest.fixture(scope="module", params=["pure", "mixed-clusters",
                                        "mixed-correlated"])
def pd_solve(request, pd, tmp_path_factory):
    """A PD solve of each back-end (216 cubes) and its final-set file."""
    report = sg.solve(pd, sg.SolverConfig(gamma=0.7, epsilon=3.2,
                                          mode=request.param))
    path = tmp_path_factory.mktemp("one_block") / "final_set.txt"
    write_report(report, path)
    return report, path


def _tampered(cert, edit):
    """A solve's certificate with one edit, or None where the edit does not
    apply: NaN in an in-support continuation ("nan"), inf in an
    out-of-support wp ("inf"), or action 5 of PD's two ("range")."""
    nan, inf = float("nan"), float("inf")
    if edit is None:
        return cert
    if cert.kind == "pure":
        w, profile = cert.continuation, cert.profile
        return {"nan": replace(cert, continuation=(nan,) + w[1:]),
                "range": replace(cert, profile=(5,) + profile[1:])}.get(edit)
    sol = cert.solution
    supports = sol.pattern.supports
    if edit == "nan":
        w0 = list(sol.continuations[0])
        w0[supports[0][0]] = nan
        sol = replace(sol, continuations=(tuple(w0), sol.continuations[1]))
    elif edit == "inf":
        out = [(i, a) for i in range(2) for a in range(2)
               if a not in supports[i]]
        if not out:
            return None
        rows = [list(row) for row in sol.utilities]
        rows[out[0][0]][out[0][1]] = inf
        sol = replace(sol, utilities=tuple(map(tuple, rows)))
    else:
        sol = replace(sol, pattern=SupportPattern((supports[0] + (5,),
                                                   supports[1])))
    return replace(cert, solution=sol)


def _verdict(check, *args):
    """A verifier's verdict, or the type and message of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def test_verify_certificate_agrees_with_verify(pd_solve, pd, rpc, tmp_path):
    # verify_certificate is --verify on one block: on a solve's certificate,
    # as it is or tampered, against the game or one of another shape, it
    # must say what verify_final_set says of the final set with that block
    # swapped in
    assert sg.verify_certificate is cli.verify_certificate
    report, path = pd_solve
    header, cubes, blocks = _sections(path)
    C = report.final
    assert len(blocks) == len(C)  # one block per cube, in index order
    swapped = tmp_path / "swapped.txt"
    seen = set()
    for edit in (None, "nan", "inf", "range"):
        for k, ix in list(enumerate(C.indices()))[::43]:
            cert = _tampered(report.certificates[ix], edit)
            if cert is None:
                continue
            _write_sections(swapped, header, cubes, blocks[:k] + [
                _certificate_text(C.origin_of(ix), cert)] + blocks[k + 1:])
            for game in (pd, rpc):
                one = _verdict(sg.verify_certificate, cert, game, 0.7, C, ix)
                assert one == _verdict(verify_final_set, swapped, game, 0.7)
                seen.add((edit, game is pd, one))
    # an unchanged certificate verifies against PD; a tampered one, or any
    # against RPS, fails
    assert all(one is (edit is None and on_pd) for edit, on_pd, one in seen)
    kind = next(iter(report.certificates.values())).kind
    if kind != "pure":
        ctx = _build_context(C, hull=kind == "correlated")
        ix = C.indices()[0]
        with pytest.raises(ValueError, match="replay table"):
            certificate_residual(report.certificates[ix], pd, 0.7,
                                 C.origin_of(ix), C.side, ctx.w_floor,
                                 ctx.halfplanes or ctx.clusters)
