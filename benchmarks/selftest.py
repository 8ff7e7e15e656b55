"""Self-test of the benchmark: a one-unit smoke pass per workload.

    python3 benchmarks/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --smoke`` once untraced
and twice traced, and checks that each run's outputs were correct, that its
result line prints every metric BENCHMARK.json names with the unit named
there, and that the deterministic counters (tensors, graph nodes, calls)
repeat exactly between the two traced runs.  It also prints the share of
outputs whose digests match the recorded seed-0 references; a change that is
allowed to move the last digits (a new summation order) lowers that share
without failing the self-test.  Exits 1 on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke(workload, trace):
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_counter(name):
    return name == "autodiff.tensors" or name.startswith("autodiff.graph_nodes.") \
        or name.endswith(".calls")


def check_result(result, spec_metrics, label):
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"unit mismatch {sorted(n for n in want if n in got and got[n] != want[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {m.get('value')!r} is not a number")
    return problems


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = smoke(workload, 0)
        problems += check_result(untraced, SPEC["end_to_end"], f"{workload} trace=0")
        first, second = smoke(workload, 1), smoke(workload, 1)
        for n, result in enumerate((first, second), 1):
            problems += check_result(result, SPEC["per_layer"], f"{workload} trace=1 run {n}")
        counters = sorted(name for name in first["metrics"] if is_counter(name))
        changed = [name for name in counters
                   if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        if changed:
            problems.append(f"{workload}: counters differ between traced runs: {changed}")
        bitexact = [r["metrics"]["outputs.bitexact"]["value"] for r in (first, second)]
        print(f"{workload}: {len(counters)} deterministic counters compared; "
              f"share of outputs bit-exact with the seed-0 references: {bitexact}")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
