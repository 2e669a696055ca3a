"""One benchmark workload in a fresh process.

Set-up (import spegrid, load the game, build the SolverConfig), then rounds
of the workload until the time budget is spent.  A round is

1. solve        ``sg.solve``; status and a digest of ``report.trace_key()``
                are checked against the recorded reference;
2. check        full automaton + value + deviation values for both players,
                and the README payoff-gap / deviation-gain bounds on every
                final cube;
3. extract      20 seeded targets in the union: extract, value, best
                deviation, and the epsilon conditions;
4. verify       ``write_final_set`` + ``verify_final_set``; the file bytes
                are checked against the reference digest.

Steps 2-4 repeat within a round until each has run MIN_STEP_S.  Every
execution of a step is one operation; an exception, a wrong status, a
digest mismatch or a false guarantee fails it and the run goes on.  With
``--trace 1`` every other round runs under the tracer.

A calibration chunk (fixed work that does not touch spegrid) runs before
the first round, after each solve and after each round.  Times are
reported at a reference machine speed: the solve is scaled by CAL_REF_S
over the mean of the chunks around it, steps 2-4 by the chunks around
them (see README.md).  Prints one JSON line with the medians over rounds,
scaled and raw.  Started by ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# name -> solver inputs; why each is here is in README.md next to this file
WORKLOADS = {
    "lp_rps": dict(game="rock_paper_scissors", gamma=0.7, epsilon=3.0,
                   mode="mixed-correlated", frozen_passes=False),
    "frozen_pd": dict(game="prisoners_dilemma", gamma=0.7, epsilon=1.6,
                      mode="mixed-correlated", frozen_passes=True),
    "literal_pd_verify": dict(game="prisoners_dilemma", gamma=0.7, epsilon=1.6,
                              mode="mixed-correlated", frozen_passes=False),
    "clusters_bos": dict(game="battle_of_sexes", gamma=0.5, epsilon=0.4,
                         mode="mixed-clusters", frozen_passes=True),
    # a few seconds; used by selftest.py only
    "smoke": dict(game="prisoners_dilemma", gamma=0.7, epsilon=3.2,
                  mode="mixed-correlated", frozen_passes=False),
}
PHASES = ("solve", "check", "extract", "verify")
EXPECTED_STATUS = "converged"
TARGETS_PER_EXTRACT = 20
# On a shared host machine speed drifts by +-20 % within seconds, so every
# metric needs samples spread over the whole run: rounds stay short, and
# the cheap steps repeat within a round until they have run this long.
MIN_STEP_S = 0.25
MIN_ROUNDS = 2
TOL = 1e-9
# It also drifts by up to 2x over minutes, for the interpreter and numpy
# alike; times are scaled by how fast the calibration chunks around them
# ran, to the speed at which a chunk takes CAL_REF_S seconds.
CAL_REF_S = 0.05


class Calibration:
    """A fixed chunk of work in the solver's mix, without spegrid: dict and
    tuple churn, sorting a few thousand index tuples, lexsort/unique over
    int arrays, small outer products.  A mix with a larger working set
    tracks cache contention on a shared host better than a tight loop."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.cells = [tuple(map(int, c)) for c in rng.integers(0, 64, (4000, 2))]
        self.xs = rng.integers(0, 256, 20000)
        self.ys = rng.integers(0, 256, 20000)
        self.vec = np.linspace(0.0, 1.0, 16)

    def __call__(self) -> float:
        """Seconds taken by one chunk.  The cyclic collector is off while it
        runs, so the objects spegrid keeps alive cannot slow it down."""
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._chunk()
        finally:
            if gc_enabled:
                gc.enable()

    def _chunk(self) -> float:
        np = self.np
        started = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(30000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += table[key]
        for _ in range(6):
            cells = sorted(set(self.cells))
            acc += sum(1 for c in cells if (c[0] + 1, c[1]) in table)
        for _ in range(12):
            order = np.lexsort((self.ys, self.xs))
            acc += float(np.unique(self.xs[order], return_index=True)[1].sum())
        for _ in range(750):
            acc += float(np.outer(self.vec, self.vec).sum())
        return time.perf_counter() - started


def setup(root: Path, workload: str):
    """Import spegrid from the checkout, load the game, build the config."""
    sys.path.insert(0, str(root / "src"))
    import spegrid
    expected = (root / "src" / "spegrid").resolve()
    if Path(spegrid.__file__).resolve().parent != expected:
        raise SystemExit(f"spegrid imported from {spegrid.__file__}, "
                         f"not from {expected}")
    spec = WORKLOADS[workload]
    game = spegrid.load_bundled(spec["game"])
    config = spegrid.SolverConfig(
        gamma=spec["gamma"], epsilon=spec["epsilon"], mode=spec["mode"],
        frozen_passes=spec["frozen_passes"])
    return spegrid, game, config


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Round:
    """One solve, then check, extract and write + verify on its result.

    Each execution of a step is one operation.  ``times`` holds each step's
    mean time per execution, ``failed`` the reason per failed operation.
    """

    def __init__(self, sg, sg_cli, game, config, reference, final_set_path,
                 calibrate, tracer=None):
        self.sg, self.sg_cli, self.game, self.config = sg, sg_cli, game, config
        self.calibrate = calibrate
        self.cal_mid = None
        self.reference = reference
        self.path = final_set_path
        self.tracer = tracer
        self.report = None
        self.times: dict[str, float] = {}
        self.reps: dict[str, int] = {}
        self.attempted = 0
        self.failed: dict[tuple[str, int], str] = {}
        self.digests: dict[str, str] = {}

    def step(self, phase: str, run, judge, repeat: bool = True) -> None:
        """Time run() (under a phase span when traced), then let judge()
        turn its value into a failure reason or None, untimed."""
        total, reps = 0.0, 0
        while True:
            span = self.tracer.phase_span(phase) if self.tracer else nullcontext()
            started = time.perf_counter()
            try:
                with span:
                    value = run()
            except Exception as exc:  # a failed operation must not stop the run
                total += time.perf_counter() - started
                reason = f"{type(exc).__name__}: {exc}"
            else:
                total += time.perf_counter() - started
                reason = judge(value)
            self.attempted += 1
            if reason:
                self.failed[(phase, reps)] = reason
            reps += 1
            if not repeat or total >= MIN_STEP_S:
                break
        self.times[f"{phase}_s"] = total / reps
        self.reps[phase] = reps

    def run(self, rng) -> None:
        sg, game, config = self.sg, self.game, self.config
        self.step("solve", lambda: sg.solve(game, config), self.judge_solve,
                  repeat=False)
        self.cal_mid = self.calibrate()
        report = self.report
        if report is None:
            for phase in PHASES[1:]:
                self.attempted += 1
                self.failed[(phase, 0)] = "skipped: solve failed"
            return
        self.times["cube_tests_per_s"] = \
            sum(s.cubes_start for s in report.iterations) / self.times["solve_s"]
        self.step("check", lambda: check_bounds(sg, game, config, report),
                  lambda ok: None if ok else
                  "payoff-gap or deviation-gain bound violated")
        self.step("extract", lambda: check_targets(sg, game, config, report, rng),
                  lambda ok: None if ok else
                  "an extracted automaton misses an epsilon condition")
        self.step("verify", lambda: write_and_verify(
            sg, self.sg_cli, game, config, report, self.path), self.judge_verify)
        self.times["total_s"] = sum(self.times[f"{p}_s"] for p in PHASES)

    def judge_solve(self, report):
        self.report = report
        digest = self.digests["trace_key"] = sha256(repr(report.trace_key()).encode())
        if report.status != EXPECTED_STATUS:
            return f"status {report.status}, expected {EXPECTED_STATUS}"
        if self.reference and digest != self.reference["trace_key"]:
            return "trace_key digest differs from the reference"
        return None

    def judge_verify(self, verified):
        digest = self.digests["final_set"] = sha256(self.path.read_bytes())
        self.path.unlink()
        if not verified:
            return "verify_final_set rejected the written set"
        if self.reference and digest != self.reference["final_set"]:
            return "final_set.txt digest differs from the reference"
        return None


def check_bounds(sg, game, config, report) -> bool:
    """README guarantee on every final cube: payoff gap at most
    gamma*l/(1-gamma) and deviation gain at most 2l/(1-gamma)."""
    import numpy as np
    gamma, C = config.gamma, report.final
    M = sg.build_full_automaton(C, report.certificates, game)
    u = sg.automaton_value(M, gamma)
    gains = [float((sg.deviation_values(M, i, gamma) - u[:, i]).max())
             for i in range(game.player_count)]
    origins = np.array([st.cube.origin for st in M.states])
    gap = float((origins - u).max())
    bound_gap = gamma * C.side / (1.0 - gamma) + 1e-6
    bound_gain = 2.0 * C.side / (1.0 - gamma) + 1e-6
    return (len(M.states) == len(C) and gap <= bound_gap
            and max(gains) <= bound_gain)


def check_targets(sg, game, config, report, rng) -> bool:
    """Extract automata for seeded targets in the union and check both
    epsilon conditions (payoff gap and best deviation gain)."""
    gamma, eps = config.gamma, config.epsilon
    cubes = report.final.cubes()
    ok = True
    for _ in range(TARGETS_PER_EXTRACT):
        cube = cubes[rng.integers(len(cubes))]
        v = tuple(o + rng.random() * cube.side for o in cube.origin)
        M = sg.extract_automaton(report.final, report.certificates, v, game)
        u = sg.automaton_value(M, gamma)[M.initial]
        for i in range(game.player_count):
            gain = sg.best_deviation(M, i, gamma) - u[i]
            ok = ok and v[i] - u[i] <= eps + TOL and gain <= eps + TOL
    return ok


def write_and_verify(sg, sg_cli, game, config, report, path: Path) -> bool:
    C = report.final
    snap = sg.SolveSnapshot(iteration=report.iterations[-1].iteration,
                            generation=C.generation, side=C.side, base=C.base,
                            indices=tuple(C.indices()))
    path.unlink(missing_ok=True)
    sg_cli.write_final_set(path, snap, report.status, report.certificates)
    return sg_cli.verify_final_set(path, game, config.gamma)


def median(values) -> float:
    return float(statistics.median(values))


def scale_round(times: dict, solve_speed: float, step_speed: float) -> dict:
    """A plain round's times at the reference speed."""
    out = {key: scale(key, value, solve_speed if key.startswith("solve")
                      or key.startswith("cube_tests") else step_speed)
           for key, value in times.items() if key != "total_s"}
    if "total_s" in times:
        out["total_s"] = sum(out[f"{p}_s"] for p in PHASES)
    return out


def scale(key: str, value: float, speed: float) -> float:
    """A time at the reference speed: seconds and microseconds shrink on a
    slow machine (speed < 1), a rate grows."""
    if key.endswith("_per_s"):
        return value / speed
    if key.endswith("_s") or "_us_" in key:
        return value * speed
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sg, game, config = setup(args.root, args.workload)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "cal_s": Calibration()()}))
        return 0

    import numpy as np
    import spegrid.cli as sg_cli
    reference = None
    if args.reference is not None:
        reference = json.loads(args.reference.read_text()).get(args.workload)
        if reference is None:
            raise SystemExit(f"no reference recorded for {args.workload}")
    tracer = None
    if args.trace:
        from tracer import Tracer, check_identities
        tracer = Tracer()

    out_dir = args.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    final_set_path = out_dir / f"final_set-{args.workload}-{args.seed}.txt"
    rng = np.random.default_rng(args.seed)
    calibrate = Calibration()
    rounds, traced, durations = [], [], []
    counts = None
    attempted, failures, digests = 0, [], {}
    cal_before = calibrate()
    deadline = time.monotonic() + args.seconds
    # a round starts only if a typical round still ends before the deadline
    while len(durations) < MIN_ROUNDS \
            or time.monotonic() + median(durations) <= deadline:
        traced_round = tracer is not None and len(durations) % 2 == 1
        rnd = Round(sg, sg_cli, game, config, reference, final_set_path,
                    calibrate, tracer if traced_round else None)
        started = time.monotonic()
        if traced_round:
            tracer.clear()
            tracer.install()
        try:
            rnd.run(rng)
        finally:
            if traced_round:
                tracer.uninstall()
        durations.append(time.monotonic() - started)
        for key, value in rnd.digests.items():
            if digests.setdefault(key, value) != value:
                rnd.failed.setdefault(("solve", 0),
                                      f"{key} digest changed between rounds")
        round_times = None
        if traced_round and rnd.report is not None:
            round_counts, round_times = tracer.metrics(rnd.report, rnd.reps)
            for rule in check_identities(round_counts):
                rnd.failed.setdefault(("solve", 0),
                                      f"tracer identity does not hold: {rule}")
            if counts is not None and round_counts != counts:
                rnd.failed.setdefault(("solve", 0),
                                      "tracer counts changed between rounds")
            counts = round_counts
        # the next chunk runs without this round's result alive
        rnd.report = None
        cal_after = calibrate()
        # the solve is scaled by the chunks around it, steps 2-4 likewise
        cal_mid = rnd.cal_mid or cal_after
        speeds = (2 * CAL_REF_S / (cal_before + cal_mid),
                  2 * CAL_REF_S / (cal_mid + cal_after))
        rounds.append(dict(traced=traced_round, raw=rnd.times,
                           cal_s=(cal_before, cal_mid, cal_after),
                           scaled=scale_round(rnd.times, *speeds)))
        cal_before = cal_after
        if round_times is not None:
            speed = (speeds[0] + speeds[1]) / 2
            traced.append((round_times,
                           {k: scale(k, v, speed) for k, v in round_times.items()}))
        attempted += rnd.attempted
        failures += [f"round {len(durations)} {phase} #{rep + 1}: {why}"
                     for (phase, rep), why in rnd.failed.items()]
    final_set_path.unlink(missing_ok=True)

    plain = [r for r in rounds if not r["traced"]]
    if tracer is None:
        # a step that failed in every round has no sample and no metric
        raw, metrics = ({key: median(values)
                         for key in [f"{p}_s" for p in PHASES]
                         + ["total_s", "cube_tests_per_s"]
                         if (values := [r[kind][key] for r in plain
                                        if key in r[kind]])}
                        for kind in ("raw", "scaled"))
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        raw, metrics = ({key: median([t[k][key] for t in traced])
                         for key in (traced[0][0] if traced else {})
                         if key != "solve_s"}
                        for k in (0, 1))
        if traced and plain:
            metrics["trace.overhead_ratio"] = \
                median([t[1]["solve_s"] for t in traced]) \
                / median([r["scaled"]["solve_s"] for r in plain])
        metrics.update(counts or {})
    cal = [c for r in rounds for c in r["cal_s"]]
    speed = CAL_REF_S / median(cal)
    print(json.dumps({
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": metrics, "raw_metrics": raw, "speed": speed,
        "cal_s": median(cal), "digests": digests, "setup_done": setup_done,
        "round_samples": rounds,
        "rounds": len(durations), "traced_rounds": len(traced),
        "python": sys.version.split()[0], "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
