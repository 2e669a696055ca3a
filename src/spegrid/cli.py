"""The command line: run orchestration and artifact emission.

A run reads a game file, drives the refinement loop, and writes a
deterministic artifact directory: per-iteration cube snapshots, the final
set with its certificates (in the ``finalset`` module's format), a
performance record, optional SVG renderings, and optional extracted
automata for requested payoff targets.  Identical manifests produce
byte-identical artifacts except for ``timing.txt``, which records
wall-clock time and is documented as the one non-deterministic file.
``--verify`` checks a final-set file with ``finalset.verify_final_set``.

Exit status: 0 converged, 2 empty final set, 3 generation guard hit,
1 usage or input errors, 4 numerical failure (an LP or a tolerance check
that could not be completed).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .automaton import extract_automaton
from .finalset import _snapshot_text, verify_final_set, write_final_set
from .finalset import verify_certificate  # noqa: F401 perfbench's trace hook
from .game import payoff_bounds
from .gamefile import parse_game_file, resolve_game_path
from .solver import SolveReport, SolveSnapshot, SolverConfig, solve
from .svg import render_svg

_MODE_FLAGS = {"pure": "pure", "mixed": "mixed-clusters",
               "correlated": "mixed-correlated"}
_EXIT_BY_STATUS = {"converged": 0, "empty": 2, "generation_guard": 3}


@dataclass
class RunManifest:
    """Everything one run needs; all fields are recorded in the artifacts."""

    game: str
    gamma: float
    epsilon: float
    mode: str = "correlated"            # pure | mixed | correlated
    completion: str = "bound"
    out_dir: str = "out"
    snapshot_every: int = 1
    extract: tuple = ()                 # payoff targets, each an (x, y) pair
    svg: bool = False
    max_generations: int = 30
    frozen_passes: bool = False

    def validate(self) -> None:
        if self.mode not in _MODE_FLAGS:
            raise ValueError(f"mode must be one of {sorted(_MODE_FLAGS)}")
        self.solver_config()  # gamma, epsilon, completion
        if self.snapshot_every < 0:
            raise ValueError("snapshot cadence must be non-negative")
        if not np.isfinite(np.array(self.extract, float)).all():
            raise ValueError("extract targets must be finite")
        resolve_game_path(self.game)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(gamma=self.gamma, epsilon=self.epsilon,
                            mode=_MODE_FLAGS[self.mode],
                            completion=self.completion,
                            max_generations=self.max_generations,
                            frozen_passes=self.frozen_passes)


def _manifest_text(m: RunManifest) -> str:
    lines = [f"game: {m.game}", f"gamma: {m.gamma!r}",
             f"epsilon: {m.epsilon!r}", f"mode: {m.mode}",
             f"completion: {m.completion}",
             f"snapshot_every: {m.snapshot_every}",
             f"max_generations: {m.max_generations}",
             f"frozen_passes: {m.frozen_passes}",
             f"svg: {m.svg}"]
    for target in m.extract:
        lines.append(f"extract: {target[0]!r},{target[1]!r}")
    return "\n".join(lines) + "\n"


def run(manifest: RunManifest) -> tuple[int, SolveReport]:
    """Execute a manifest and write its artifact directory."""
    manifest.validate()
    game = parse_game_file(resolve_game_path(manifest.game))
    config = manifest.solver_config()
    bounds = payoff_bounds(game)
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshots").mkdir(exist_ok=True)
    if manifest.svg:
        (out / "svg").mkdir(exist_ok=True)
    (out / "manifest.txt").write_text(_manifest_text(manifest))

    final_snap: SolveSnapshot | None = None

    def on_snapshot(snap: SolveSnapshot) -> None:
        nonlocal final_snap
        final_snap = snap
        if manifest.snapshot_every and snap.iteration % manifest.snapshot_every == 0:
            text = _snapshot_text(snap, snap.origins())
            (out / "snapshots" / f"iter_{snap.iteration:05d}.txt").write_text(text)
            if manifest.svg:
                image = render_svg(snap.origins(), snap.side, bounds,
                                   title=f"iteration {snap.iteration}")
                (out / "svg" / f"iter_{snap.iteration:05d}.svg").write_text(image)

    started = time.perf_counter()
    report = solve(game, config, snapshot_callback=on_snapshot)
    elapsed = time.perf_counter() - started

    write_final_set(out / "final_set.txt", final_snap, report.status,
                    report.certificates)
    if manifest.svg:
        (out / "svg" / "final.svg").write_text(
            render_svg(final_snap.origins(), final_snap.side, bounds,
                       title=f"final ({report.status})"))
    (out / "performance.txt").write_text(
        "\n".join([f"game: {manifest.game}",
                   f"mode: {manifest.mode}",
                   f"gamma: {manifest.gamma!r}",
                   f"epsilon: {manifest.epsilon!r}",
                   f"final_side: {report.final.side!r}",
                   f"final_cubes: {len(report.final)}",
                   f"iterations: {len(report.iterations)}",
                   f"status: {report.status}"]) + "\n")
    per_iter = "\n".join(f"iteration {s.iteration}: {s.wall_time:.6f}"
                         for s in report.iterations)
    (out / "timing.txt").write_text(
        f"total_seconds: {elapsed:.6f}\n{per_iter}\n")

    if manifest.extract and not report.empty:
        (out / "automata").mkdir(exist_ok=True)
        for target in manifest.extract:
            try:
                M = extract_automaton(report.final, report.certificates,
                                      target, game)
            except ValueError as exc:
                print(f"warning: cannot extract automaton at {target}: {exc}",
                      file=sys.stderr)
                continue
            stem = f"target_{target[0]!r}_{target[1]!r}".replace(" ", "")
            (out / "automata" / f"{stem}.txt").write_text(M.to_text())
            (out / "automata" / f"{stem}.dot").write_text(M.to_dot())
    return _EXIT_BY_STATUS[report.status], report


def _parse_extract(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'v1,v2'")
    return float(parts[0]), float(parts[1])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spegrid",
        description="Approximate the set of subgame-perfect equilibrium "
                    "payoff profiles of a discounted two-player repeated "
                    "game, and extract strategy automata.")
    p.add_argument("game", help="game file path or bundled game name")
    p.add_argument("--gamma", type=float, required=True,
                   help="discount factor in [0, 1)")
    p.add_argument("--epsilon", type=float, required=True,
                   help="approximation factor (> 0)")
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="correlated",
                   help="cube-test back-end (default: correlated)")
    p.add_argument("--completion", choices=("bound", "exact"), default="bound",
                   help="stopping criterion (default: bound)")
    p.add_argument("--out", default="out", help="artifact directory")
    p.add_argument("--snapshot-every", type=int, default=1, metavar="N",
                   help="write every Nth iteration snapshot (0 disables)")
    p.add_argument("--extract", type=_parse_extract, action="append",
                   default=[], metavar="V1,V2",
                   help="extract an automaton for this payoff target "
                        "(repeatable)")
    p.add_argument("--svg", action="store_true",
                   help="render snapshots and the final set as SVG")
    p.add_argument("--max-generations", type=int, default=30,
                   help="split-depth guard (default: 30)")
    p.add_argument("--frozen-passes", action="store_true",
                   help="freeze the union context per pass and apply "
                        "removals at pass end (faster on large sets; can "
                        "only delay removals)")
    p.add_argument("--verify", metavar="FINAL_SET",
                   help="replay the certificates of a final-set file "
                        "against this game and --gamma, then exit")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 for --help
        return 1 if exc.code else 0
    try:
        if args.verify:
            game = parse_game_file(resolve_game_path(args.game))
            ok = verify_final_set(args.verify, game, args.gamma)
            print("certificates verified" if ok else "verification FAILED")
            return 0 if ok else 1
        manifest = RunManifest(
            game=args.game, gamma=args.gamma, epsilon=args.epsilon,
            mode=args.mode, completion=args.completion,
            out_dir=args.out, snapshot_every=args.snapshot_every,
            extract=tuple(args.extract), svg=args.svg,
            max_generations=args.max_generations,
            frozen_passes=args.frozen_passes)
        code, report = run(manifest)
        print(f"status: {report.status}  cubes: {len(report.final)}  "
              f"side: {report.final.side}  iterations: {len(report.iterations)}")
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
