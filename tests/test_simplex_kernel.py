"""The simplex kernel against the kernel it replaced, pivot for pivot.

``feasibility._Simplex`` keeps its cost row as the last row of one tableau
array and pivots with one in-place rank-1 update; ``conftest.ReferenceSimplex``
is the kernel before that, its tableau and cost row two arrays.  Both start
from the same phase-1 tableau.  They must take the same pivots, step by step
(with the same tableau, cost row and basis after each), end every run with
the same tableau and cost-row bytes, basis and Bland flag, and return the
same point to the bit (or both None, or both an unbounded objective).

The cases: random systems with free, low-only, high-only and two-sided
variables and coefficients and right-hand sides of both zero signs;
degenerate systems whose ratio tests tie; a cycling example that switches
on Bland's rule, and random systems run under Bland's rule from the start;
systems without rows; the largest-entry drive-out; and every support LP of
the benchmark's ``lp_rps`` and ``clusters_bos`` solves.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import spegrid as sg
from spegrid import feasibility
from spegrid.feasibility import PIVOT_TOL, _phase_one, _Simplex
from conftest import ReferenceSimplex, reference_solve

GRID = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _digest(sx) -> bytes:
    return hashlib.sha256(sx.T.tobytes() + sx.z.tobytes()).digest()


def traced(solve, system, kernel):
    """``solve(system)`` with every pivot and run of ``kernel`` logged:
    (row, col, tableau digest, basis) per pivot, and (verdict, tableau and
    cost-row bytes, basis, Bland flag) at the end of each run."""
    log = []
    pivot, run = kernel.pivot, kernel.run

    def logged_pivot(self, row, col):
        pivot(self, row, col)
        log.append(("pivot", row, col, _digest(self), tuple(self.basis)))

    def logged_run(self):
        ok = run(self)
        log.append(("run", ok, self.T.tobytes(), self.z.tobytes(),
                    tuple(self.basis), self.bland))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "pivot", logged_pivot)
        mp.setattr(kernel, "run", logged_run)
        try:
            outcome = solve(system)
        except sg.UnboundedError:
            outcome = "unbounded"
        except RuntimeError as error:
            outcome = str(error)
    return outcome, log


def assert_same_kernel(system):
    """The two kernels on one system; returns the reference's outcome and
    log."""
    want, want_log = traced(reference_solve, system, ReferenceSimplex)
    got, got_log = traced(sg.solve_feasibility, system, _Simplex)
    assert [e[:3] for e in got_log] == [e[:3] for e in want_log]
    assert got_log == want_log
    if isinstance(want, dict):
        assert list(got) == list(want)
        assert list(map(float.hex, got.values())) == \
            list(map(float.hex, want.values()))
    else:
        assert got == want
    return want, want_log


def _value(rng) -> float:
    return float(rng.choice(GRID)) if rng.random() < 0.6 \
        else float(rng.uniform(-3.0, 3.0))


def random_system(rng) -> sg.LinearSystem:
    sys = sg.LinearSystem()
    nvar = int(rng.integers(1, 6))
    for j in range(nvar):
        lo, hi = sorted((_value(rng), _value(rng) + float(rng.integers(0, 3))))
        kind = rng.integers(4)
        sys.add_variable(f"x{j}", low=lo if kind in (1, 3) else -np.inf,
                         high=hi if kind in (2, 3) else np.inf)
    for _ in range(int(rng.integers(0, 7))):
        coeffs = {f"x{j}": _value(rng) for j in range(nvar)
                  if rng.random() < 0.7}
        sys.add_constraint(coeffs, str(rng.choice(["<=", "=", ">="])),
                           _value(rng))
    if rng.random() < 0.4:
        sys.set_objective({f"x{j}": _value(rng) for j in range(nvar)})
    return sys


def test_random_systems():
    rng = np.random.default_rng(12)
    outcomes = {"point": 0, "infeasible": 0, "unbounded": 0}
    pivots = 0
    for _ in range(300):
        want, log = assert_same_kernel(random_system(rng))
        kind = "point" if isinstance(want, dict) else \
            "infeasible" if want is None else want
        outcomes[kind] += 1
        pivots += sum(e[0] == "pivot" for e in log)
    assert min(outcomes.values()) >= 10, outcomes
    assert pivots > 400


def _count_ties(mp, ties):
    # the reference's ratio test, recounted: how many rows reach the minimum
    leaving = ReferenceSimplex._leaving

    def counted(self, col):
        c = self.T[:, col]
        rows = np.flatnonzero(c > PIVOT_TOL)
        if rows.size:
            ratios = self.T[rows, -1] / c[rows]
            ties.append(int((ratios <= ratios.min() + 1e-12).sum()))
        return leaving(self, col)

    mp.setattr(ReferenceSimplex, "_leaving", counted)


def test_degenerate_systems_tie_in_the_ratio_test():
    # rows repeated with scaled coefficients, right-hand sides mostly zero,
    # so that ratio tests tie exactly or to within the tie slack
    rng = np.random.default_rng(34)
    ties = []
    with pytest.MonkeyPatch.context() as mp:
        _count_ties(mp, ties)
        for _ in range(60):
            nvar = int(rng.integers(2, 5))
            sys = sg.LinearSystem()
            for j in range(nvar):
                sys.add_variable(f"x{j}", low=0.0,
                                 high=float(rng.choice([1.0, 2.0, np.inf])))
            for _ in range(int(rng.integers(2, 5))):
                coeffs = {f"x{j}": float(rng.choice(GRID))
                          for j in range(nvar)}
                rel = str(rng.choice(["<=", "=", ">="]))
                rhs = float(rng.choice([0.0, -0.0, 0.0, 1.0]))
                # scaled by 0.1 or 0.3, a ratio can round an ulp apart
                for scale in (1.0, 2.0, 0.1, 0.3)[:int(rng.integers(1, 5))]:
                    sys.add_constraint({k: v * scale for k, v in
                                        coeffs.items()}, rel, rhs * scale)
            if rng.random() < 0.5:
                sys.set_objective({f"x{j}": float(rng.choice(GRID))
                                   for j in range(nvar)})
            assert_same_kernel(sys)
    assert sum(t > 1 for t in ties) >= 20


def beale() -> sg.LinearSystem:
    """Beale's cycling example: the largest-coefficient rule stalls on it
    until the simplex switches to Bland's rule."""
    sys = sg.LinearSystem()
    for name in "abcd":
        sys.add_variable(name, low=0.0)
    sys.add_constraint({"a": 0.25, "b": -8.0, "c": -1.0, "d": 9.0}, "<=", 0.0)
    sys.add_constraint({"a": 0.5, "b": -12.0, "c": -0.5, "d": 3.0}, "<=", 0.0)
    sys.add_constraint({"c": 1.0}, "<=", 1.0)
    sys.set_objective({"a": -0.75, "b": 20.0, "c": -0.5, "d": 6.0})
    return sys


def test_cycling_example_switches_to_blands_rule():
    want, log = assert_same_kernel(beale())
    assert [e[-1] for e in log if e[0] == "run"] == [False, True]
    assert want == {"a": pytest.approx(1.0), "b": 0.0, "c": 1.0, "d": 0.0}


def test_blands_rule_from_the_first_pivot():
    rng = np.random.default_rng(56)
    pivots = 0
    for _ in range(100):
        start, _ = _phase_one(random_system(rng).compile())
        ref = ReferenceSimplex(start.T.copy(), start.z.copy(),
                               list(start.basis))
        ref.bland = start.bland = True
        want, want_log = traced(lambda sx: sx.run(), ref, ReferenceSimplex)
        got, got_log = traced(lambda sx: sx.run(), start, _Simplex)
        assert got == want
        assert got_log == want_log
        pivots += len(want_log) - 1
    assert pivots > 100


def test_systems_without_rows():
    systems = []
    for objective, expect in (({}, "point"), ({"x": 1.0, "y": -1.0}, "point"),
                              ({"x": 1.0, "f": 1.0}, "unbounded")):
        sys = sg.LinearSystem()
        sys.add_variable("x", low=-1.0)
        sys.add_variable("y", high=2.0)
        sys.add_variable("f")
        if objective:
            sys.set_objective(objective)
        systems.append((sys, expect))
    # an unbounded objective on a variable with only an upper bound
    sys = sg.LinearSystem()
    sys.add_variable("x", high=5.0)
    sys.set_objective({"x": 1.0})
    systems.append((sys, "unbounded"))
    # rows that the drive-out drops as redundant, then an objective
    sys = sg.LinearSystem()
    sys.add_variable("x")
    sys.add_constraint({}, "=", 0.0)
    sys.add_constraint({"x": 1.0}, "=", 1.0)
    sys.add_constraint({"x": 2.0}, "=", 2.0)
    sys.set_objective({"x": -1.0})
    systems.append((sys, "point"))
    for sys, expect in systems:
        want, _ = assert_same_kernel(sys)
        assert ("point" if isinstance(want, dict) else want) == expect


def test_ratios_that_overflow():
    # every ratio of the entering column is inf, so all usable rows tie
    sys = sg.LinearSystem()
    sys.add_variable("x", low=0.0)
    sys.add_variable("y", low=0.0)
    sys.add_constraint({"y": 1.0, "x": 1e-9}, "<=", 1e300)
    sys.add_constraint({"x": 2e-9}, "<=", 1e300)
    sys.set_objective({"x": -1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        want, log = assert_same_kernel(sys)
    assert [e[:3] for e in log if e[0] == "pivot"] == [("pivot", 0, 0)]
    assert want == "simplex returned a point with residual inf"


def test_largest_entry_drive_out():
    # the system of test_feasibility's phase-one-slack case: the first
    # drive-out misses the residual check and the fallback runs
    game = sg.StageGame((("a0", "a1"), ("b0", "b1")),
                        np.array([[(0.0, 0.0), (0.0, 0.0)],
                                  [(-0.1, 1.1), (0.0, 1.2)]]))
    planes = (sg.HalfPlane(0.0, -1.0, -0.225), sg.HalfPlane(1.0, 0.0, 0.225),
              sg.HalfPlane(0.0, 1.0, 0.55), sg.HalfPlane(-1.0, 0.0, 0.1))
    cube = sg.Hypercube((0.00625, 1.0024998999999999), 0.1)
    sys = sg.correlated_support_system(
        cube, planes, (-0.1, 0.225), sg.payoff_bounds(game), game, 0.1,
        sg.SupportPattern(((1,), (0, 1))))
    checks = []
    violation = feasibility.ArraySystem._violation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility.ArraySystem, "_violation",
                   lambda self, x: checks.append(1) or violation(self, x))
        want, _ = assert_same_kernel(sys)
    assert want is not None
    # a residual check per drive-out, per kernel
    assert len(checks) == 4


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload, lps", [("lp_rps", 75),
                                           ("clusters_bos", 331)])
def test_support_lps_of_a_benchmark_solve(workload, lps):
    spec = _workloads()[workload]
    config = sg.SolverConfig(gamma=spec["gamma"], epsilon=spec["epsilon"],
                             mode=spec["mode"],
                             frozen_passes=spec["frozen_passes"])
    systems = []
    solve = feasibility.solve_feasibility
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "solve_feasibility",
                   lambda system: systems.append(system) or solve(system))
        sg.solve(sg.load_bundled(spec["game"]), config)
    assert len(systems) == lps
    for system in systems:
        assert_same_kernel(system)
