"""Outside-in tracer for the spegrid benchmark.

The tracer wraps, from outside the package, the functions that one spegrid
module looks up in another (and a few private solver steps that mark a
layer boundary).  Each target is patched under the name its caller looks
up: ``spegrid.solver.get_halfplanes``, not ``spegrid.geometry.get_halfplanes``,
because the solver resolves that global at call time.  Nothing under
``src/`` changes; ``uninstall`` restores the original functions, so untraced
rounds run the unmodified program.

Every call records a span (name, parent span, benchmark phase, start, end)
into flat arrays kept in memory for one benchmark round.  ``metrics``
turns those spans into per-layer counts and times: self time is a span's
duration minus its direct children's, and a span is attributed by its
parent, so ``certificate_residual`` under ``verify_certificate`` counts for
the cli layer, not for in-loop replay.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

PHASES = ("solve", "check", "extract", "verify")


def _found(args, result):
    return result is not None


def _length(args, result):
    return len(result)


def _lp_note(args, result):
    system = args[0]
    return (result is not None, len(system.constraints), len(system.variables))


def _automaton_note(args, result):
    lotteries = sum(1 for st in result.states for tr in st.transitions.values()
                    if not isinstance(tr, int))
    return (len(result.states), lotteries)


# (module the caller lives in, attribute the caller looks up, note on the call)
TARGETS = (
    # solver loop -> geometry: context build (floor, clusters, hull) and split
    ("spegrid.solver", "_build_context", None),
    ("spegrid.solver", "get_clusters", _length),
    ("spegrid.solver", "get_halfplanes", None),
    ("spegrid.solver", "hull_vertices", _length),
    ("spegrid.solver", "split_all", None),
    # solver loop: certificate replay and fresh searches
    ("spegrid.solver", "_replay_ok", lambda args, result: bool(result)),
    ("spegrid.solver", "certificate_residual", None),
    ("spegrid.solver", "cube_supported_mixed", _found),
    ("spegrid.solver", "cube_supported_correlated", _found),
    # solver -> feasibility: support enumeration, LP builders, simplex
    ("spegrid.solver", "solve_support_program", None),
    ("spegrid.solver", "mixed_cluster_system", None),
    ("spegrid.solver", "correlated_support_system", None),
    ("spegrid.feasibility", "solve_feasibility", _lp_note),
    # benchmark -> automaton, and automaton's own cross-module lookups
    ("spegrid", "build_full_automaton", _automaton_note),
    ("spegrid", "extract_automaton", None),
    ("spegrid", "automaton_value", None),
    ("spegrid", "deviation_values", None),
    ("spegrid.automaton", "deviation_values", None),
    # benchmark -> cli: final-set write and --verify
    ("spegrid.cli", "write_final_set", None),
    ("spegrid.cli", "verify_final_set", None),
    ("spegrid.cli", "verify_certificate", None),
)

SEARCHES = ("spegrid.solver.cube_supported_mixed",
            "spegrid.solver.cube_supported_correlated")
BUILDERS = ("spegrid.solver.mixed_cluster_system",
            "spegrid.solver.correlated_support_system")
VERIFY_CONTEXT = ("spegrid.solver.get_clusters", "spegrid.solver.get_halfplanes")
DEVIATIONS = ("spegrid.deviation_values", "spegrid.automaton.deviation_values")


class TracerError(RuntimeError):
    """A trace target is missing or a span identity does not hold."""


class Tracer:
    """Span recorder over the TARGETS; one round's spans at a time."""

    def __init__(self):
        self.names = [f"bench.{p}" for p in PHASES]
        self.phase = -1
        self._name = array("i")
        self._parent = array("i")
        self._phase = array("b")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._notes: dict[str, list] = {}
        self._wrapped = []
        for module_name, attr, note in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise TracerError(f"trace target {module_name}.{attr} is missing")
            name = f"{module_name}.{attr}"
            self.names.append(name)
            self._notes[name] = []
            original = getattr(module, attr)
            self._wrapped.append((module, attr, original,
                                  self._wrap(original, len(self.names) - 1,
                                             note, self._notes[name])))

    def _wrap(self, fn, name_id, note, notes):
        names, parents, phases = self._name, self._parent, self._phase
        t0, t1, stack = self._t0, self._t1, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(t0)
            names.append(name_id)
            parents.append(stack[-1])
            phases.append(tracer.phase)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if note is not None:
                notes.append((tracer.phase, note(args, result)))
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._wrapped:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._wrapped:
            setattr(module, attr, original)

    def clear(self) -> None:
        for arr in (self._name, self._parent, self._phase, self._t0, self._t1):
            del arr[:]
        for notes in self._notes.values():
            notes.clear()
        del self._stack[1:]

    @contextmanager
    def phase_span(self, phase: str):
        """Root span for one benchmark phase; spans inside inherit it."""
        k = PHASES.index(phase)
        idx = len(self._t0)
        self._name.append(k)
        self._parent.append(-1)
        self._phase.append(k)
        self._t1.append(0.0)
        self._stack.append(idx)
        self.phase = k
        self._t0.append(time.perf_counter())
        try:
            yield
        finally:
            self._t1[idx] = time.perf_counter()
            self._stack.pop()
            self.phase = -1

    # -- aggregation ------------------------------------------------------

    def metrics(self, report, reps: dict) -> tuple[dict, dict]:
        """Per-layer counts and times of the recorded round.

        ``reps`` gives how often each phase ran in the round; phase totals
        are divided by it.  Returns (counts, times): counts must repeat
        exactly between rounds, times are one sample each.
        """
        name = np.frombuffer(self._name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.intc).astype(np.int64)
        phase = np.frombuffer(self._phase, dtype=np.int8).astype(np.int64)
        dur = np.frombuffer(self._t1, dtype=float) - np.frombuffer(self._t0, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {n: k for k, n in enumerate(self.names)}

        def mask(names, in_phase=None, under=None):
            m = np.isin(name, [ids[n] for n in names])
            if in_phase is not None:
                m &= phase == PHASES.index(in_phase)
            if under is not None:
                m &= parent_name == ids[under]
            return m

        def total(names, in_phase=None, under=None):
            return float(dur[mask(names, in_phase, under)].sum())

        def count(names, in_phase=None, under=None):
            return int(mask(names, in_phase, under).sum())

        def per_rep(names, in_phase, under=None):
            return total(names, in_phase, under) / reps[in_phase]

        def noted(target, in_phase="solve"):
            k = PHASES.index(in_phase)
            return [v for p, v in self._notes[target] if p == k]

        solve_s = total(["bench.solve"])
        verify_s = per_rep(["spegrid.cli.verify_final_set"], "verify")
        lp = noted("spegrid.feasibility.solve_feasibility")
        lp_us = dur[mask(["spegrid.feasibility.solve_feasibility"], "solve")] * 1e6
        searches = noted(SEARCHES[0]) + noted(SEARCHES[1])
        replays = noted("spegrid.solver._replay_ok")
        clusters = noted("spegrid.solver.get_clusters")
        hull = noted("spegrid.solver.hull_vertices")
        full = noted("spegrid.build_full_automaton", "check")

        counts = {
            "feasibility.lps":
                count(["spegrid.feasibility.solve_feasibility"], "solve"),
            "feasibility.lps_feasible": sum(1 for ok, _, _ in lp if ok),
            "feasibility.lps_infeasible": sum(1 for ok, _, _ in lp if not ok),
            "feasibility.support_programs":
                count(["spegrid.solver.solve_support_program"], "solve"),
            "feasibility.lp_rows_mean": _mean([r for _, r, _ in lp]),
            "feasibility.lp_cols_mean": _mean([c for _, _, c in lp]),
            "geometry.context_builds":
                count(["spegrid.solver._build_context"], "solve"),
            "geometry.clusters_mean": _mean(clusters),
            "geometry.hull_vertices_mean": _mean(hull),
            "solver.cube_tests": sum(s.cubes_start for s in report.iterations),
            "solver.passes": len(report.iterations),
            "solver.withdrawals": sum(s.removed for s in report.iterations),
            "solver.replays": count(["spegrid.solver._replay_ok"], "solve"),
            "solver.replay_hits": sum(replays),
            "solver.searches": count(SEARCHES, "solve"),
            "solver.searches_failed": sum(1 for ok in searches if not ok),
            "automaton.states": full[0][0] if full else 0,
            "automaton.lotteries": full[0][1] if full else 0,
            "cli.verify_certificates": count(["spegrid.cli.verify_certificate"],
                                             "verify") // reps["verify"],
        }
        counts["feasibility.lp_feasible_ratio"] = \
            _ratio(counts["feasibility.lps_feasible"], counts["feasibility.lps"])
        counts["solver.replay_hit_ratio"] = \
            _ratio(counts["solver.replay_hits"], counts["solver.replays"])
        counts["solver.search_found_ratio"] = _ratio(
            counts["solver.searches"] - counts["solver.searches_failed"],
            counts["solver.searches"])

        closed_form = mask(["spegrid.solver.solve_support_program", *SEARCHES],
                           "solve")
        times = {
            "solve_s": solve_s,
            "feasibility.lp_build_s": total(BUILDERS, "solve"),
            "feasibility.lp_solve_s": total(
                ["spegrid.feasibility.solve_feasibility"], "solve"),
            "feasibility.lp_solve_us_p50":
                float(np.percentile(lp_us, 50)) if lp_us.size else 0.0,
            "feasibility.lp_solve_us_p99":
                float(np.percentile(lp_us, 99)) if lp_us.size else 0.0,
            "geometry.context_s": total(["spegrid.solver._build_context"], "solve"),
            "geometry.split_s": total(["spegrid.solver.split_all"], "solve"),
            "solver.replay_s": total(["spegrid.solver._replay_ok"], "solve"),
            "solver.closed_form_s": float(self_time[closed_form].sum()),
            "solver.loop_self_s": float(self_time[mask(["bench.solve"])].sum()),
            "automaton.build_s":
                per_rep(["spegrid.build_full_automaton"], "check")
                + per_rep(["spegrid.extract_automaton"], "extract"),
            "automaton.value_s": per_rep(["spegrid.automaton_value"], "check")
                + per_rep(["spegrid.automaton_value"], "extract"),
            "automaton.deviation_s": per_rep(DEVIATIONS, "check")
                + per_rep(DEVIATIONS, "extract"),
            "cli.write_s": per_rep(["spegrid.cli.write_final_set"], "verify"),
            "cli.verify_context_s": per_rep(VERIFY_CONTEXT, "verify",
                                            under="spegrid.cli.verify_certificate"),
            "cli.verify_replay_s": per_rep(["spegrid.solver.certificate_residual"],
                                           "verify",
                                           under="spegrid.cli.verify_certificate"),
        }
        feas = times["feasibility.lp_build_s"] + times["feasibility.lp_solve_s"]
        geom = times["geometry.context_s"] + times["geometry.split_s"]
        times["feasibility.solve_share"] = _ratio(feas, solve_s)
        times["geometry.solve_share"] = _ratio(geom, solve_s)
        times["solver.solve_share"] = _ratio(
            times["solver.closed_form_s"] + times["solver.replay_s"]
            + times["solver.loop_self_s"], solve_s)
        times["cli.verify_context_share"] = _ratio(times["cli.verify_context_s"],
                                                   verify_s)
        return counts, times


def check_identities(counts: dict) -> list[str]:
    """Identities between span counts, call results and the solve report;
    returns the ones that fail."""
    c = counts
    rules = [
        ("solver.replay_hits + solver.searches = solver.cube_tests",
         c["solver.replay_hits"] + c["solver.searches"] == c["solver.cube_tests"]),
        ("searches returning None = solver.withdrawals",
         c["solver.searches_failed"] == c["solver.withdrawals"]),
        ("feasibility.lps = feasible + infeasible",
         c["feasibility.lps"]
         == c["feasibility.lps_feasible"] + c["feasibility.lps_infeasible"]),
        ("solver.replays >= solver.replay_hits",
         c["solver.replays"] >= c["solver.replay_hits"]),
    ]
    return [rule for rule, ok in rules if not ok]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
