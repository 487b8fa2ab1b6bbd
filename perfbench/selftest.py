"""Harness self-test: every workload once at a tiny size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it asserts that the untraced run reports
every end-to-end metric and the traced run every per-layer metric, each with
its unit; that both runs are correct; that the traced counts equal the
counts derived from the workload inputs and repeat exactly in a second traced
run; and that after tracing every sqztune module attribute and every class
attribute is the very object it was before.  Exits 1 on the first failed
workload check list, 0 when all pass.
"""

from __future__ import annotations

import json
import sys

import run
from steadiness import COUNT_UNITS

SEED = 7


def bindings() -> dict:
    """Every attribute of every sqztune module and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "sqztune" or name.startswith("sqztune."):
            for key, value in vars(module).items():
                found[name, key] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        found[name, key, attr] = member
    return found


def check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: run not correct ({result['failed']}/{result['attempted']} failed)")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {metric['name']} is {got}, unit should be {metric['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))

    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        result, _ = run.execute(name, SEED, seconds=1.0, trace=False, tiny=True, starts=2)
        problems += check_metrics(result, spec["end_to_end"], f"{name} end-to-end")

        before = bindings()
        traced = [run.execute(name, SEED, seconds=1.0, trace=True, tiny=True) for _ in range(2)]
        after = bindings()
        changed = [key for key, value in before.items() if after.get(key) is not value]
        if changed:
            problems.append(f"{name}: attributes not restored after tracing: {changed[:5]}")
        for result, detail in traced:
            problems += check_metrics(result, spec["per_layer"], f"{name} traced")
            if detail["count_mismatches"]:
                problems.append(f"{name}: counts differ from input-derived values: "
                                f"{detail['count_mismatches']}")
        counts = [({k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}, d["calls"])
                  for r, d in traced]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between two traced runs")
        print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            break

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
