"""The benchmark's own tests, on the few-second ``smoke`` workload.

    python3 perfbench/selftest.py

Checks that
- an untraced and a traced run print, as their last line, one JSON object
  with exactly the keys correct, attempted, failed, metrics, holding every
  metric BENCHMARK.json lists, each named by ``[A-Za-z0-9_.-]+`` and with
  the listed unit;
- the traced run passes the tracer identities;
- a deliberately wrong reference digest shows up as a failed operation;
- a directory holding only BENCHMARK.json and the benchmark's files makes
  run.py fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN = ["--workload", "smoke", "--seed", "7", "--seconds", "2"]

sys.path.insert(0, str(HERE))
from tracer import check_identities  # noqa: E402


def run(*extra: str, run_py: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(run_py), *RUN, *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    error = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    return proc.returncode, lines, error


def check_result(lines, wanted) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not whole numbers")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if not NAME.match(m["name"]) or got.get("unit") != m["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']}: {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks: list[tuple[str, list[str]]] = []

    code, lines, error = run("--trace", "0")
    checks.append(("untraced run prints the end-to-end metrics",
                   [f"exit code {code}: {error}"] if code else
                   check_result(lines, spec["end_to_end"])))

    code, lines, error = run("--trace", "1")
    problems = [f"exit code {code}: {error}"] if code else \
        check_result(lines, spec["per_layer"])
    record = json.loads((ROOT / ".perfbench_out" / "smoke-seed7-trace1.json")
                        .read_text())
    problems += [f"identity fails: {rule}"
                 for rule in check_identities(record["metrics"])]
    checks.append(("traced run prints the per-layer metrics, identities hold",
                   problems))

    scratch = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    refs = json.loads((HERE / "reference.json").read_text())
    refs["smoke"]["trace_key"] = "0" * 64
    wrong = scratch / "wrong_reference.json"
    wrong.write_text(json.dumps(refs))
    code, lines, _ = run("--trace", "0", "--reference", str(wrong))
    result = json.loads(lines[-1]) if lines and not code else {}
    checks.append(("a wrong reference digest counts as a failed operation",
                   [] if result.get("correct") is False
                   and result.get("failed", 0) >= 1 else [f"got {result}"]))

    bare = scratch / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines, _ = run("--trace", "0", run_py=bare / HERE.name / "run.py")
    checks.append(("without the sources run.py fails and prints no result",
                   [] if code != 0 and not lines else
                   [f"exit code {code}, output {lines[-1:]}"]))
    shutil.rmtree(scratch)

    for name, problems in checks:
        print(f"{'PASS' if not problems else 'FAIL'}  {name}")
        for p in problems:
            print(f"      {p}")
    return 0 if all(not p for _, p in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
