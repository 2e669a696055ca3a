"""The final-set file: its writer, reader, fit rules and two verifiers.

A final set is a cube-set snapshot (the text a run also writes per
iteration) followed by one certificate block per cube.
``verify_final_set`` replays a file's certificates against the cube set
stored alongside it; ``verify_certificate`` is that check on one block,
written and read back.  Both fit every certificate kind to the game before
they replay any, and read each mixed kind straight into the replay
kernel's arrays.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from .feasibility import FEAS_TOL, SupportPattern, SupportSolution
from .game import (PROB_TOL, MixedProfile, StageGame, check_gamma,
                   conditional_columns, distribution_error)
from .geometry import CubeSet
from .solver import (SolveSnapshot, SupportCertificate, _build_context,
                     _residual_kernel, certificate_residual)


def _snapshot_text(snap: SolveSnapshot, origins,
                   status: str | None = None) -> str:
    lines = ["# spegrid cube-set snapshot",
             f"iteration: {snap.iteration}",
             f"generation: {snap.generation}",
             f"side: {snap.side!r}",
             f"base: {' '.join(map(repr, snap.base))}"]
    if status is not None:
        lines.append(f"status: {status}")
    lines.append(f"cubes: {len(snap.indices)}")
    lines.extend(" ".join(map(repr, origin)) for origin in origins)
    return "\n".join(lines) + "\n"


def _certificate_text(origin, cert: SupportCertificate) -> list[str]:
    lines = [f"cube: {' '.join(map(repr, origin))}", f"kind: {cert.kind}"]
    if cert.kind == "pure":
        lines.append(f"profile: {' '.join(map(str, cert.profile))}")
        lines.append("continuation: "
                     + " ".join(map(repr, map(float, cert.continuation))))
    else:
        sol = cert.solution
        lines.append("pattern: " + " | ".join(" ".join(map(str, s))
                                              for s in sol.pattern.supports))
        lines.append("alpha: " + _rows_text(p.tolist() for p in sol.alpha.probs))
        lines.append("w: " + _rows_text(sol.continuations))
        lines.append("wp: " + _rows_text(sol.utilities))
    return lines


def _rows_text(rows) -> str:
    """One row per player, separated by ' | '."""
    return " | ".join(" ".join(map(repr, map(float, row))) for row in rows)


def _parse_rows(text: str, conv=float) -> tuple:
    return tuple(tuple(map(conv, part.split())) for part in text.split("|"))


def write_final_set(path, snap: SolveSnapshot, status: str,
                    certificates: dict) -> None:
    origins = dict(zip(snap.indices, snap.origins()))
    lines = [_snapshot_text(snap, origins.values(), status=status).rstrip("\n"),
             "certificates:"]
    for idx in sorted(certificates):
        lines.extend(_certificate_text(origins[idx], certificates[idx]))
    Path(path).write_text("\n".join(lines) + "\n")


def _lattice_indices(lines, base, side) -> list[tuple[int, ...]]:
    """The lattice index k of each line's origin, which must be exactly
    base + k * side, the writer's formula (``CubeSet.origin_of``'s)."""
    origins = np.array([line.split() for line in lines],
                       float).reshape(len(lines), len(base))
    ix = np.rint((origins - base) / side)
    if not (np.all(np.abs(ix) < 2.0 ** 53)
            and np.array_equal(base + ix * side, origins)):
        raise ValueError("a cube origin is not a lattice point")
    return list(map(tuple, ix.astype(np.int64).tolist()))


def _read_final_set(path):
    """The cube set and status stored in a final-set file, and its
    certificate section as ``_read_certificates`` reads it."""
    lines = [line for line in map(str.strip, Path(path).read_text().splitlines())
             if line and not line.startswith("#")]
    meta = {}
    k = 0
    while k < len(lines) and "cubes" not in meta:
        key, _, value = lines[k].partition(":")
        meta[key.strip()] = value.strip()
        k += 1
    rest = lines[k:]
    # a missing 'cubes:' line leaves every line in the header
    missing = [key for key in ("base", "side", "cubes") if key not in meta]
    if "certificates:" not in rest:
        missing.append("certificates")
    if missing:
        raise ValueError(f"final set has no '{missing[0]}:' line")
    stop, count = rest.index("certificates:"), int(meta["cubes"])
    base, side = tuple(map(float, meta["base"].split())), float(meta["side"])
    C = CubeSet(base, side, _lattice_indices(rest[:stop], base, side),
                generation=int(meta.get("generation", 0)))
    if not stop == len(C) == count:
        # a repeated cube line is counted once
        raise ValueError(f"final set lists {len(C)} cubes in {stop} lines "
                         f"but its header declares {count}")
    return (C, meta.get("status", "unknown"),
            *_read_certificates(rest[stop + 1:], base, side))


def _read_certificates(lines, base, side):
    """A certificate section's lines read as the lattice index of each
    block's cube, in block order, and the section's fields, each a dict
    from block number to the field's value there (the last, where a block
    repeats a field)."""
    fields: dict = {}
    block = -1
    for line in lines:
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "cube":
            block += 1
        elif block < 0:
            raise ValueError("certificate fields before any 'cube:' line")
        fields.setdefault(key, {})[block] = value.strip()
    cubes = _lattice_indices(list(fields.get("cube", {}).values()), base, side)
    return cubes, fields


def _column(fields: dict, key: str, blocks) -> list[str]:
    """The value of the field ``key`` in each of ``blocks``; a block
    without one is an error that names it by its cube."""
    values = fields.get(key, {})
    try:
        return [values[b] for b in blocks]
    except KeyError as exc:
        cube = fields["cube"][exc.args[0]]
        raise ValueError(f"the certificate block of cube {cube} has no "
                         f"'{key}:' line") from None


def _certificate(fields: dict, block: int, w_floor) -> SupportCertificate:
    """The certificate written in one block, unchecked."""
    def value(key):
        return _column(fields, key, [block])[0]

    kind = value("kind")
    if kind == "pure":
        return SupportCertificate(
            kind=kind, w_floor=w_floor,
            profile=tuple(map(int, value("profile").split())),
            continuation=tuple(map(float, value("continuation").split())))
    rows = {key: _parse_rows(value(key)) for key in ("alpha", "w", "wp")}
    sol = SupportSolution(MixedProfile(tuple(map(np.array, rows["alpha"]))),
                          rows["w"], rows["wp"],
                          SupportPattern(_parse_rows(value("pattern"), int)))
    return SupportCertificate(kind=kind, w_floor=w_floor, solution=sol)


def read_final_set(path) -> tuple[CubeSet, str, dict]:
    """Reconstruct the final cube set and its certificates from a file.  A
    cube whose certificate block repeats is left without a certificate, so
    the set does not verify."""
    C, status, cubes, fields = _read_final_set(path)
    repeats = Counter(cubes)
    return C, status, {ix: _certificate(fields, b, C.min_origin())
                       for b, ix in enumerate(cubes) if repeats[ix] == 1}


def _field_array(values: list[str], counts) -> np.ndarray | None:
    """A field's values (one row per player, split on '|') as one float
    array with a column per action, or None unless each value has
    ``counts[i]`` entries for player i (two players)."""
    m0, m1 = counts
    if any(len(a.split()) != m0 or len(b.split()) != m1 or "|" in b
           for a, _, b in (text.partition("|") for text in values)):
        return None
    return np.array(" ".join(values).replace("|", " ").split(),
                    float).reshape(len(values), m0 + m1)


def _mixed_columns(fields: dict, blocks, counts) -> list:
    """A mixed kind's blocks as columns, a row per block and a column per
    action of each player (player 0's first): the in-support mask, alpha,
    w and wp; each None unless every row fits the game's shape (per player
    one non-empty pattern row of actions in range, one entry per action)."""
    patterns = _column(fields, "pattern", blocks)
    supports = {p: _parse_rows(p, int) for p in set(patterns)}
    masks = {p: [a in s[i] for i in range(2) for a in range(counts[i])]
             for p, s in supports.items()
             if len(s) == 2 and all(supp and 0 <= min(supp) and max(supp) < m
                                    for supp, m in zip(s, counts))}
    in_supp = (np.array([masks[p] for p in patterns], bool)
               if len(masks) == len(supports) else None)
    return [in_supp] + [_field_array(_column(fields, key, blocks), counts)
                        for key in ("alpha", "w", "wp")]


def _fit_columns(columns, game: StageGame):
    """``_residual_kernel``'s w, conditional payoffs and in-support mask
    from mixed columns that fit the game, or None: every column read, w and
    wp finite (a NaN slips past every residual comparison), and alpha, once
    clipped at 0, no mass above PROB_TOL outside the pattern.  An alpha row
    that is no distribution raises MixedProfile's ValueError."""
    if columns is None or any(col is None for col in columns):
        return None
    in_supp, alpha, w, wp = columns
    # the messages start with the player, so ties go to player 0
    errors = [e for e in map(distribution_error, np.split(
        alpha, [game.action_count(0)], axis=1), (0, 1)) if e]
    if errors:
        raise ValueError(min(errors)[1])
    alpha = np.clip(alpha, 0.0, None)
    if not (np.isfinite(w).all() and np.isfinite(wp).all()) \
            or np.any(np.where(in_supp, 0.0, alpha) > PROB_TOL):
        return None
    return w, conditional_columns(alpha, game), in_supp


def _fits_game(cert: SupportCertificate, counts) -> bool:
    """Whether a pure certificate (read from a file, so unchecked) has, per
    player, one action in range of ``counts`` and one finite continuation."""
    return (len(cert.profile) == len(cert.continuation) == len(counts)
            and all(0 <= a < m for a, m in zip(cert.profile, counts))
            and np.isfinite(cert.continuation).all())


def _final_set_residuals(path, game: StageGame, gamma: float):
    """``_block_residuals`` of a final-set file's certificate blocks
    against its cube set; None unless each cube has one block."""
    C, _, cubes, fields = _read_final_set(path)
    if sorted(cubes) != C.indices():
        return None
    return _block_residuals(C, cubes, fields, game, gamma)


def _block_residuals(C: CubeSet, cubes, fields: dict, game: StageGame,
                     gamma: float):
    """Per certificate kind of the blocks read into ``fields``, in order of
    first appearance, its blocks' cubes (``cubes``, lattice indices of C)
    and their residuals against C: a pure block's ``certificate_residual``,
    a mixed kind's ``_residual_kernel``.  Every kind is read, then fitted
    to the game, before any is replayed against its own context: pure
    blocks as certificates, mixed kinds as the kernel's columns.  None
    unless every block fits."""
    by_kind: dict = {}
    for b, kind in enumerate(_column(fields, "kind", range(len(cubes)))):
        by_kind.setdefault(kind, []).append(b)
    counts = [game.action_count(i) for i in range(game.player_count)]
    # an unknown kind, or a mixed one against a game without two players,
    # is read as None, which fits no game
    groups = {kind: [_certificate(fields, b, C.min_origin()) for b in blocks]
              if kind == "pure" else _mixed_columns(fields, blocks, counts)
              if kind in ("mixed", "correlated") and len(counts) == 2 else None
              for kind, blocks in by_kind.items()}
    for kind, group in groups.items():
        if kind == "pure":
            fitted = all(_fits_game(cert, counts) for cert in group)
        else:
            fitted = groups[kind] = _fit_columns(group, game)
        if not fitted:
            return None
    residuals = {}
    for kind, blocks in by_kind.items():
        ctx = _build_context(C, hull=kind == "correlated")
        index = [cubes[b] for b in blocks]
        if kind == "pure":
            res = [certificate_residual(cert, game, gamma, C.origin_of(ix),
                                        C.side, ctx.w_floor, ctx.clusters)
                   for ix, cert in zip(index, groups[kind])]
        else:
            res = _residual_kernel(index, *groups[kind], C, ctx, gamma,
                                   counts)
        residuals[kind] = index, np.asarray(res)
    return residuals


def _replays(residuals) -> bool:
    # the verdict on _block_residuals: every block fits and replays
    return residuals is not None and all(np.all(res <= FEAS_TOL)
                                         for _, res in residuals.values())


def verify_final_set(path, game: StageGame, gamma: float) -> bool:
    """Replay the certificates stored in a final-set file against the cube
    set stored alongside it, at the 1e-7 feasibility tolerance; every cube
    needs exactly one certificate that fits the game."""
    check_gamma(gamma)
    return _replays(_final_set_residuals(path, game, gamma))


def verify_certificate(cert: SupportCertificate, game: StageGame,
                       gamma: float, C: CubeSet, index) -> bool:
    """``verify_final_set`` on one block: write ``cert`` as the block of
    the cube ``index`` of C, read it back, then fit and replay it against C
    by the file's code.  False when C has no such cube."""
    check_gamma(gamma)
    if index not in C:
        return False
    cubes, fields = _read_certificates(
        _certificate_text(C.origin_of(index), cert), C.base, C.side)
    return _replays(_block_residuals(C, cubes, fields, game, gamma))
