"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 10                  # all workloads
    python3 perfbench/sweep.py --seeds 5 --workloads lp_rps --trace 1

Each run is one ``run.py`` invocation (so every workload gets fresh
processes); the workload order is reversed on every other seed.  For each
end-to-end metric the spread is the distance between the first and third
quartile of the runs, as a share of their median (``statistics.quantiles``
with n=4).  A spread above a third of the metric's bound is marked ``wide``,
above the bound ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs: dict[str, list] = {w: [] for w in workloads}
    for k in range(args.seeds):
        seed = args.first_seed + k
        for w in (workloads if k % 2 == 0 else workloads[::-1]):
            started = time.monotonic()
            res = run_once(w, seed, args.seconds, args.trace)
            res["wall_s"] = time.monotonic() - started
            runs[w].append(res)
            print(f"seed {seed:3d} {w:<20} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"wall={res['wall_s']:.1f}s", flush=True)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary: dict[str, dict] = {}
    ok = all(r["correct"] for rs in runs.values() for r in rs)
    print(f"\n{'workload':<18} {'metric':<34} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  flags")
    for w, rs in runs.items():
        summary[w] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rs
                      if m["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][m["name"]] = {"median": med, "spread": spread,
                                     "values": values}
            bound = m.get("bound")
            flags = []
            if bound is not None and spread > bound:
                flags.append("OVER")
            elif bound is not None and spread > bound / 3:
                flags.append("wide")
            print(f"{w:<18} {m['name']:<34} {med:>12.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6}  {' '.join(flags)}")
        walls = [r["wall_s"] for r in rs]
        print(f"{w:<18} {'(run wall time, s)':<34} {statistics.median(walls):>12.1f}"
              f"  max {max(walls):.1f}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args),
                                "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"\nall runs correct: {ok}; written {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
