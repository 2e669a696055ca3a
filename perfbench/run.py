"""spegrid benchmark: one workload, one seed, in fresh single-threaded processes.

    python3 perfbench/run.py --workload lp_rps --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a spegrid checkout; the program is imported from
the checkout's ``src/``.  Set-up is timed in several fresh processes, then
one fresh process runs the workload for ``--seconds``
(see ``worker.py``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones (see ``tracer.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record with provenance goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PROCESSES = 3       # set-up-only processes before and again after the
                          # workload process, which adds one more sample
SETUP_TIMEOUT_S = 60
ROUND_MARGIN_S = 145      # the workload process may overrun --seconds by the
                          # set-up and one round at most; this is ample
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

sys.path.insert(0, str(HERE))
from worker import CAL_REF_S, WORKLOADS  # noqa: E402  (stdlib-only import)


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(extra: list[str], timeout: float) -> tuple[dict, float]:
    """Start worker.py in a fresh single-threaded process; returns its JSON
    line and the monotonic time just before the process was started."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def time_setups(common: list[str]) -> list[tuple[float, float]]:
    """(seconds from process start to a loaded game and SolverConfig,
    reference-speed factor measured right after) per fresh process."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        out, started = run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
        samples.append((out["setup_done"] - started, CAL_REF_S / out["cal_s"]))
    return samples


def provenance(seed: int, numpy_version: str, python_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": python_version, "numpy": numpy_version,
            "commit": commit, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="reference digests to check against")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference "
                             "instead of checking them")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spegrid" / "__init__.py").is_file():
        print(f"error: no spegrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = time_setups(common)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if not args.record:
            extra += ["--reference", str(args.reference)]
        result, started = run_worker(common + extra,
                                     args.seconds + ROUND_MARGIN_S)
        setups += [(result["setup_done"] - started, result["speed"])]
        setups += time_setups(common)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = dict(result["metrics"],
                    setup_s=statistics.median(t * speed for t, speed in setups))
    raw = dict(result["raw_metrics"],
               setup_s=statistics.median(t for t, _ in setups))
    attempted, failed = result["attempted"], result["failed"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not failed:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    # a step that failed in every round has no value; the result line still
    # reports the run, as incorrect
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    bad = [name for name in metrics if not NAME.match(name)]
    if bad:
        print(f"error: bad metric names {bad}", file=sys.stderr)
        return 1

    prov = provenance(args.seed, result["numpy"], result["python"])
    print(f"# spegrid benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# rounds={result['rounds']} traced={result['traced_rounds']} "
          f"setup_processes={len(setups)}")
    print(f"# calibration chunk median {result['cal_s']:.5f} s (reference "
          f"{CAL_REF_S} s): times are scaled round by round, by "
          f"{result['speed']:.4f} overall")
    print(f"# operations attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4f}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    if missing:
        print(f"# no value for {', '.join(missing)}")
    for name, m in metrics.items():
        unscaled = f"  (measured {raw[name]:.6f})" \
            if raw.get(name, m["value"]) != m["value"] else ""
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}{unscaled}")

    if args.record:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[args.workload] = result["digests"]
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(f"# recorded reference digests for {args.workload}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(provenance=prov, workload=args.workload,
                  seconds=args.seconds, trace=args.trace, setup_samples=setups,
                  **{k: result[k] for k in ("attempted", "failed", "failures",
                                            "digests", "rounds", "traced_rounds",
                                            "cal_s", "speed", "metrics",
                                            "raw_metrics", "round_samples")})
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
