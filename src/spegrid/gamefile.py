"""Structured text format for stage games.

Grammar (one directive per line, '#' starts a comment, blank lines
ignored)::

    game        = header payoffs
    header      = "name:" IDENT? , "players:" INT , actions+
    actions     = "actions" PLAYER ":" LABEL+
    payoffs     = "payoffs:" , row+
    row         = LABEL{n} NUMBER{n}

Rows must appear in row-major (lexicographic) profile order; the leading
labels of each row are validated against the expected profile so ordering
mistakes are reported with the offending line and profile index.
Serialization writes floats with repr, so parse(serialize(g)) reproduces
the payoff tensor bit-exactly.
"""

from __future__ import annotations

import itertools
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .game import StageGame


class GameFormatError(ValueError):
    """Raised for malformed game documents, with line context."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_game(document: str) -> StageGame:
    """Parse a game document into a StageGame."""
    players = None
    actions: dict[int, list[str]] = {}
    action_lines: dict[int, int] = {}
    payoff_rows: list[tuple[int, list[str]]] = []
    in_payoffs = False
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_payoffs:
            payoff_rows.append((lineno, line.split()))
            continue
        if line == "payoffs:":
            in_payoffs = True
            continue
        if ":" not in line:
            raise GameFormatError(f"expected 'key: value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "name" or key == "source":
            continue
        if key == "players":
            if players is not None:
                raise GameFormatError("repeated 'players:' directive", lineno)
            try:
                players = int(value)
            except ValueError:
                raise GameFormatError(f"players must be an integer, got {value!r}",
                                      lineno)
            if players < 2:
                raise GameFormatError("at least two players required", lineno)
        elif key.startswith("actions"):
            parts = key.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise GameFormatError(f"expected 'actions <player>:', got {key!r}",
                                      lineno)
            idx = int(parts[1])
            if idx in actions:
                raise GameFormatError(
                    f"repeated action block for player {idx}", lineno)
            labels = value.split()
            if not labels:
                raise GameFormatError(f"player {idx} has no actions", lineno)
            if len(set(labels)) != len(labels):
                raise GameFormatError(f"player {idx} has duplicate action labels",
                                      lineno)
            actions[idx], action_lines[idx] = labels, lineno
        else:
            raise GameFormatError(f"unknown directive {key!r}", lineno)
    if players is None:
        raise GameFormatError("missing 'players:' directive")
    extra = [i for i in actions if not 1 <= i <= players]
    if extra:
        raise GameFormatError(f"action block for player {extra[0]} in a "
                              f"{players}-player game", action_lines[extra[0]])
    missing = [i for i in range(1, players + 1) if i not in actions]
    if missing:
        raise GameFormatError(f"missing action block for player(s) {missing}")
    if not in_payoffs:
        raise GameFormatError("missing 'payoffs:' section")

    labels = [actions[i] for i in range(1, players + 1)]
    expected = list(itertools.product(*labels))
    if len(payoff_rows) != len(expected):
        raise GameFormatError(
            f"expected {len(expected)} payoff rows (one per profile, row-major), "
            f"got {len(payoff_rows)}; first missing profile index "
            f"{min(len(payoff_rows), len(expected))}")
    tensor = np.zeros(tuple(len(l) for l in labels) + (players,))
    for k, ((lineno, tokens), profile) in enumerate(zip(payoff_rows, expected)):
        if len(tokens) != 2 * players:
            raise GameFormatError(
                f"profile index {k}: expected {players} labels and {players} "
                f"payoffs, got {len(tokens)} fields", lineno)
        got = tuple(tokens[:players])
        if got != profile:
            raise GameFormatError(
                f"profile index {k}: expected profile {'/'.join(profile)} "
                f"(row-major order), got {'/'.join(got)}", lineno)
        values = []
        for tok in tokens[players:]:
            try:
                values.append(float(tok))
            except ValueError:
                raise GameFormatError(
                    f"profile index {k}: non-numeric payoff {tok!r}", lineno)
            if not math.isfinite(values[-1]):
                raise GameFormatError(
                    f"profile index {k}: payoff {tok!r} is not finite", lineno)
        index = tuple(labels[i].index(profile[i]) for i in range(players))
        tensor[index] = values
    return StageGame(tuple(tuple(l) for l in labels), tensor)


def serialize_game(game: StageGame, name: str | None = None,
                   source: str | None = None) -> str:
    """Write a StageGame back to the text format (floats via repr)."""
    lines = []
    if name:
        lines.append(f"name: {name}")
    if source:
        lines.append(f"source: {source}")
    lines.append(f"players: {game.player_count}")
    for i, acts in enumerate(game.actions, start=1):
        lines.append(f"actions {i}: {' '.join(acts)}")
    lines.append("payoffs:")
    for profile in game.profiles():
        labels = " ".join(game.label_profile(profile))
        values = " ".join(repr(float(v)) for v in game.payoff(profile))
        lines.append(f"{labels}  {values}")
    return "\n".join(lines) + "\n"


def parse_game_file(path) -> StageGame:
    return parse_game(Path(path).read_text())


def list_bundled() -> list[str]:
    """Names of the game files shipped with the package."""
    root = resources.files("spegrid") / "games"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".game"))


def load_bundled(name: str) -> StageGame:
    root = resources.files("spegrid") / "games"
    path = root / f"{name}.game"
    if not path.is_file():
        raise KeyError(f"no bundled game named {name!r}; "
                       f"available: {', '.join(list_bundled())}")
    return parse_game(path.read_text())


def resolve_game_path(spec: str):
    """A CLI convenience: a real path wins, otherwise a bundled name."""
    p = Path(spec)
    if p.is_file():
        return p
    root = resources.files("spegrid") / "games"
    candidate = root / f"{spec}.game"
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(
        f"{spec!r} is neither a file nor a bundled game "
        f"(bundled: {', '.join(list_bundled())})")
