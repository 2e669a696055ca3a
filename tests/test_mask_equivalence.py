"""A frozen pass's pattern mask is its searches' box screen, and their only
one; its point-mass batch is the hull's singleton decider, and its only one.

Frozen solves of both mixed back-ends, on random 2x2, 2x3 and 3x3 games on
a 0.1 grid and on two benchmark workloads (BoS over clusters, PD over the
hull), run once as they are and once with the mask and the batch that reads
it withheld, which makes every search screen each (region, pattern) pair
through the scalar entry, and decide each point mass through the scalar
decider, as the literal loop does.  The pass trace, the ``final_set.txt``
bytes and every certificate's bits must be identical; the run with the
batch must not call the scalar hull decider at all.  With the mask, no
search or singleton decider calls the scalar box screen; only the
hull-slice cut screens the in-support rows again, with its cut window, and
it evaluates no out-of-support row.  Neither loop hands a mixed
certificate to the scalar ``certificate_residual`` (the pure residual):
both replay it through the pass's table.
"""

import contextlib
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import spegrid as sg
import spegrid.solver as solver
from spegrid.finalset import write_final_set


def random_grid_game(seed):
    rng = np.random.default_rng(seed)
    shape = [(2, 2), (2, 3), (3, 3)][seed % 3]
    actions = tuple(tuple(f"a{k}" for k in range(m)) for m in shape)
    return sg.StageGame(actions,
                        rng.integers(-30, 31, size=shape + (2,)) / 10.0)


def withheld(indices, C, ctx, game, gamma):
    # no mask rows: each search gets None and screens every pair itself
    return np.full(len(indices), None, dtype=object)


def no_witnesses(indices, keep, C, ctx, game, gamma):
    # no batch verdicts: each search runs the scalar singleton decider
    return [None] * len(indices)


def scalar_decider_raises(*args):
    raise AssertionError("a frozen pass called the scalar hull decider")


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def certificate_bits(certificates):
    out = []
    for ix in sorted(certificates):
        cert = certificates[ix]
        sol = cert.solution
        out.append((ix, cert.kind, sol.pattern, bits(cert.w_floor),
                    [bits(p) for p in sol.alpha.probs],
                    [bits(row) for row in sol.continuations],
                    [bits(row) for row in sol.utilities],
                    bits(cert.row)))
    return out


def run(game, config, tmp_path, name):
    report = sg.solve(game, config)
    C = report.final
    path = tmp_path / f"{name}.txt"
    write_final_set(path, sg.SolveSnapshot(
        iteration=report.iterations[-1].iteration, generation=C.generation,
        side=C.side, base=C.base, indices=tuple(C.indices())),
        report.status, report.certificates)
    return (report.trace_key(), path.read_bytes(),
            certificate_bits(report.certificates))


def assert_mask_changes_nothing(game, config, tmp_path):
    rejected = []

    def spy(*args):
        mask = real(*args)
        rejected.append(int(mask.size - np.count_nonzero(mask)))
        return mask

    real = solver._pattern_mask
    with mock.patch.object(solver, "_pattern_mask", spy), \
            mock.patch.object(solver, "_singleton_correlated_solution",
                              scalar_decider_raises):
        masked = run(game, config, tmp_path, "masked")
    with mock.patch.object(solver, "_pattern_mask", withheld), \
            mock.patch.object(solver, "_point_mass_witnesses",
                              no_witnesses):
        full = run(game, config, tmp_path, "full")
    assert masked[0] == full[0]
    assert masked[1] == full[1]
    assert masked[2] == full[2]
    return sum(rejected)


@pytest.mark.parametrize("mode", ["mixed-clusters", "mixed-correlated"])
@pytest.mark.parametrize("gamma", [0.0, 0.6])
@pytest.mark.parametrize("seed", range(6))
def test_random_games(tmp_path, seed, gamma, mode):
    game = random_grid_game(seed)
    config = sg.SolverConfig(gamma=gamma,
                             epsilon=0.2 * game.tables.bounds.spread,
                             mode=mode, frozen_passes=True)
    assert_mask_changes_nothing(game, config, tmp_path)


@pytest.mark.parametrize("name,gamma,epsilon,mode", [
    ("battle_of_sexes", 0.5, 0.4, "mixed-clusters"),
    ("prisoners_dilemma", 0.7, 1.6, "mixed-correlated"),
], ids=["clusters_bos", "frozen_pd"])
def test_benchmark_workloads(tmp_path, name, gamma, epsilon, mode):
    config = sg.SolverConfig(gamma=gamma, epsilon=epsilon, mode=mode,
                             frozen_passes=True)
    # the mask must skip pairs here, or the comparison shows nothing
    assert assert_mask_changes_nothing(sg.load_bundled(name), config,
                                       tmp_path) > 1000


WORKLOADS = {  # game, gamma, epsilon, mode, frozen passes
    "frozen_pd": ("prisoners_dilemma", 0.7, 1.6, "mixed-correlated", True),
    "clusters_bos": ("battle_of_sexes", 0.5, 0.4, "mixed-clusters", True),
    "literal_pd_verify": ("prisoners_dilemma", 0.7, 1.6, "mixed-correlated",
                          False),
}


SPIED = ("_screen_pattern", "_screen_support", "_deviation",
         "_singleton_correlated_solution", "_clip_box")


def spied_calls(name):
    """Calls per (function, caller) in one solve of a benchmark workload,
    of the box screen (``_screen_pattern``), its in-support rows
    (``_screen_support``), the out-of-support row (``_deviation``), the
    hull's singleton decider and its clip; a ``_deviation`` call made under
    the hull-slice cut counts as the cut's.  Also, per function, the calls
    that returned None or an empty result."""
    game, gamma, epsilon, mode, frozen = WORKLOADS[name]
    calls, empty = Counter(), Counter()

    def spying(fn):
        real = getattr(solver, fn)

        def spy(*args, **kwargs):
            frame = sys._getframe(1)
            caller = frame.f_code.co_name
            while fn == "_deviation" and frame is not None:
                if frame.f_code.co_name == "_screen_hull_slices":
                    caller = "_screen_hull_slices"
                frame = frame.f_back
            calls[fn, caller] += 1
            result = real(*args, **kwargs)
            empty[fn] += result is None or isinstance(result, list) \
                and not result
            return result
        return mock.patch.object(solver, fn, spy)

    with contextlib.ExitStack() as stack:
        for fn in SPIED:
            stack.enter_context(spying(fn))
        sg.solve(sg.load_bundled(game), sg.SolverConfig(
            gamma=gamma, epsilon=epsilon, mode=mode, frozen_passes=frozen))
    return calls, empty


def callers(calls, fn):
    return {caller for f, caller in calls if f == fn}


@pytest.mark.parametrize("name", ["frozen_pd", "clusters_bos"])
def test_frozen_searches_screen_only_through_the_mask(name):
    # the mask holds the box screen's verdicts, so only the cut screens
    # again, in its narrower window (1,709 and 1,838 calls per solve came
    # from the searches and deciders when they screened for themselves)
    calls, empty = spied_calls(name)
    assert not callers(calls, "_screen_pattern")
    assert callers(calls, "_screen_support") <= {"_screen_hull_slices"}
    # the hull's patterns reach the cut, so the spy sees calls
    assert (calls["_screen_support", "_screen_hull_slices"] > 0) \
        == (name == "frozen_pd")
    # the cut's window moves no out-of-support row, so it evaluates none
    assert "_screen_hull_slices" not in callers(calls, "_deviation")
    # the pass's batch decides the hull's point masses: the scalar decider
    # never runs (1,480 calls per frozen_pd solve when it did), and only
    # the batch clips, the boxes a row cuts
    assert not callers(calls, "_singleton_correlated_solution")
    assert callers(calls, "_clip_box") <= {"_point_mass_witnesses"}
    assert (calls["_clip_box", "_point_mass_witnesses"] > 0) \
        == (name == "frozen_pd")


def test_literal_searches_screen_once_per_pair():
    # one scalar entry per (cube, region, pattern) a search walks, plus the
    # cut's: at most the 5,329 calls per solve made when the deciders
    # screened for themselves
    calls, empty = spied_calls("literal_pd_verify")
    assert callers(calls, "_screen_pattern") == {"shortcut"}
    assert callers(calls, "_screen_support") == {"_screen_pattern",
                                                 "_screen_hull_slices"}
    assert calls["_screen_pattern", "shortcut"] \
        + calls["_screen_support", "_screen_hull_slices"] <= 5329
    assert "_screen_hull_slices" not in callers(calls, "_deviation")
    # the decider rejects only where its clip leaves nothing (436 of 1,724
    # calls per solve rejected on the interval when the decider tested it)
    assert empty["_singleton_correlated_solution"] == empty["_clip_box"] > 0


@pytest.mark.parametrize("epsilon", [1.6, 0.4])
def test_frozen_correlated_solves_decide_point_masses_only_in_the_batch(
        tmp_path, epsilon):
    # a frozen correlated solve with the scalar decider raising keeps the
    # trace key and final-set bytes of the solve that runs it for every
    # point mass; at epsilon 0.4 rows cut about 1,800 boxes per solve
    game = sg.load_bundled("prisoners_dilemma")
    config = sg.SolverConfig(gamma=0.7, epsilon=epsilon, frozen_passes=True)
    with mock.patch.object(solver, "_singleton_correlated_solution",
                           scalar_decider_raises):
        batch = run(game, config, tmp_path, "batch")
    with mock.patch.object(solver, "_point_mass_witnesses", no_witnesses):
        scalar = run(game, config, tmp_path, "scalar")
    assert batch[0] == scalar[0]
    assert batch[1] == scalar[1]


@pytest.mark.parametrize("frozen", [False, True], ids=["literal", "frozen"])
@pytest.mark.parametrize("name", ["frozen_pd", "clusters_bos"],
                         ids=["pd_correlated", "bos_clusters"])
def test_solves_replay_mixed_certificates_only_through_the_table(name,
                                                                 frozen):
    # both loops replay a mixed certificate through the pass's table; the
    # scalar mixed residual is its oracle (conftest's scalar_residual), not
    # a path beside it
    game, gamma, epsilon, mode, _ = WORKLOADS[name]
    game = sg.load_bundled(game)
    config = sg.SolverConfig(gamma=gamma, epsilon=epsilon, mode=mode,
                             frozen_passes=frozen)
    real = solver.certificate_residual

    def scalar(cert, *args):
        if cert.kind != "pure":
            raise AssertionError("a mixed certificate reached the scalar "
                                 "replay")
        return real(cert, *args)

    expected = sg.solve(game, config).trace_key()
    with mock.patch.object(solver, "certificate_residual", scalar):
        assert sg.solve(game, config).trace_key() == expected
